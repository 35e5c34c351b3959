package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runFracd re-executes the test binary as the fracd command with args
// and returns its stderr and exit code.
func runFracd(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestFracdMain$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "FRACD_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return stderr.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return stderr.String(), 0
}

// TestFracdMain is the re-exec entry point of runFracd; it does nothing
// in a normal test run.
func TestFracdMain(t *testing.T) {
	if os.Getenv("FRACD_TEST_MAIN") != "1" {
		return
	}
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{"fracd"}, os.Args[i+1:]...)
			break
		}
	}
	main()
}

// TestLogLevelFlag checks that an unknown -log-level is a usage error
// (exit 2) rather than a silent fallback, and that "warning" is not an
// alias of "warn".
func TestLogLevelFlag(t *testing.T) {
	for _, bad := range []string{"bogus", "warning"} {
		stderr, code := runFracd(t, "-log-level", bad)
		if code != 2 {
			t.Errorf("-log-level %s: exit %d, want 2\n%s", bad, code, stderr)
		}
		if !strings.Contains(stderr, "-log-level") {
			t.Errorf("-log-level %s: usage error does not name the flag:\n%s", bad, stderr)
		}
	}
}

// TestLoggerJSONRecords checks the daemon's log records: one slog JSON
// object per line with time, upper-case level, msg and the bound
// service tag, and records below -log-level dropped. An unusable -addr
// makes the daemon log one error and exit 1 before it serves anything;
// -peers adds an info record ("clusterz view enabled") ahead of it,
// which warn level must drop.
func TestLoggerJSONRecords(t *testing.T) {
	stderr, code := runFracd(t, "-log-level", "warn", "-addr", "127.0.0.1:-1",
		"-peers", "a=http://127.0.0.1:1")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	if len(lines) != 1 {
		t.Fatalf("wrote %d records at warn level, want 1:\n%s", len(lines), stderr)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record is not JSON: %v\n%s", err, lines[0])
	}
	for k, want := range map[string]any{
		"level": "ERROR", "msg": "listen failed", "service": "fracd", "addr": "127.0.0.1:-1",
	} {
		if rec[k] != want {
			t.Errorf("record[%q] = %v, want %v", k, rec[k], want)
		}
	}
	if _, ok := rec["time"].(string); !ok {
		t.Errorf("record has no time: %v", rec)
	}
}
