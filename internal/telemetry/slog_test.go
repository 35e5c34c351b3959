package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestLoggerJSONRecords(t *testing.T) {
	var buf bytes.Buffer
	l := JSONLogger(&buf, slog.LevelDebug)
	l.Info("request done", "id", "abc123", "status", 200, "dur_ms", 1.5,
		"ok", true, "err", errors.New("boom"), "d", 250*time.Millisecond)

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("record is not JSON: %v\n%s", err, buf.String())
	}
	for k, want := range map[string]any{
		"level": "INFO", "msg": "request done",
		"id": "abc123", "status": 200.0, "dur_ms": 1.5, "ok": true,
		"err": "boom", "d": float64(250 * time.Millisecond),
	} {
		if rec[k] != want {
			t.Errorf("record[%q] = %v (%T), want %v", k, rec[k], rec[k], want)
		}
	}
	ts, _ := rec["time"].(string)
	if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Errorf("record time %q is not RFC 3339: %v", rec["time"], err)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := JSONLogger(&buf, slog.LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	lines := strings.Count(buf.String(), "\n")
	if lines != 2 {
		t.Errorf("wrote %d records at warn level, want 2:\n%s", lines, buf.String())
	}
	ctx := context.Background()
	if !l.Enabled(ctx, slog.LevelError) || l.Enabled(ctx, slog.LevelInfo) {
		t.Error("Enabled disagrees with the configured level")
	}
}

func TestLoggerWithBindsFields(t *testing.T) {
	var buf bytes.Buffer
	l := JSONLogger(&buf, slog.LevelInfo).With("req", "r1", "worker", 3)
	l.Info("solved", "shots", 7)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["req"] != "r1" || rec["worker"] != 3.0 || rec["shots"] != 7.0 {
		t.Errorf("bound fields missing: %v", rec)
	}
}

func TestDiscardLoggerDisabled(t *testing.T) {
	l := DiscardLogger().With("k", "v")
	l.Error("nothing happens")
	for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if l.Enabled(context.Background(), level) {
			t.Errorf("discard logger enabled at %v", level)
		}
	}
}
