package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runTiny runs one workload at --tiny size and decodes its final line.
func runTiny(t *testing.T, workload string, trace bool, inject string) (int, result, string) {
	t.Helper()
	var out bytes.Buffer
	cfg := config{workload: workload, seed: 7, seconds: 4, trace: trace, tiny: true, inject: inject, out: t.TempDir()}
	code, _ := run(cfg, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, out.String())
	}
	return code, res, out.String()
}

func metricNames(specs []metricSpec) []string {
	var out []string
	for _, m := range specs {
		out = append(out, m.name)
	}
	return out
}

func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			code, res, out := runTiny(t, wl.name, trace, "")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: code %d, result %+v\n%s", wl.name, trace, code, res, out)
			}
			want := metricNames(endToEnd)
			if trace {
				want = metricNames(perLayer)
				if !strings.Contains(out, "per-layer budget: "+wl.name) || !strings.Contains(out, "trace overhead") {
					t.Errorf("%s: traced run printed no budget table\n%s", wl.name, out)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.name, trace, name)
				}
			}
		}
	}
}

// TestInjectedFaultFails corrupts one answer per workload (a reported
// violation count, a class flash count, a hit's shot shifted by one
// pitch); the checks must count it and the command must fail.
func TestInjectedFaultFails(t *testing.T) {
	for _, wl := range workloads {
		code, res, out := runTiny(t, wl.name, false, faults[wl.name])
		if code == 0 || res.Correct || res.Failed < 1 {
			t.Errorf("%s with %s: code %d, result %+v\n%s", wl.name, faults[wl.name], code, res, out)
		}
		if !strings.Contains(out, "check failed:") {
			t.Errorf("%s: no failed check reported\n%s", wl.name, out)
		}
	}
}

// TestExactCountsRepeat runs ilt-cold twice with one seed, untraced and
// traced, and requires every exact count to repeat bit-for-bit.
func TestExactCountsRepeat(t *testing.T) {
	for _, trace := range []bool{false, true} {
		_, first, _ := runTiny(t, iltCold.name, trace, "")
		_, second, _ := runTiny(t, iltCold.name, trace, "")
		for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
			a, ok := first.Metrics[m.name]
			if !m.exact || !ok {
				continue
			}
			if b := second.Metrics[m.name]; a.Value != b.Value {
				t.Errorf("%s: %v then %v", m.name, a.Value, b.Value)
			}
			if a.Value == 0 {
				t.Errorf("%s is 0 on ilt-cold; the exactness check proves nothing", m.name)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics the program reports, with the same units and
// directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, program %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, list := range []struct {
		json []metric
		prog []metricSpec
		kind string
	}{{b.EndToEnd, endToEnd, "end_to_end"}, {b.PerLayer, perLayer, "per_layer"}} {
		if len(list.json) != len(list.prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", list.kind, len(list.json), len(list.prog))
		}
		for i, m := range list.json {
			p := list.prog[i]
			if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("%s %d: %+v, program %+v", list.kind, i, m, p)
			}
			if (m.Bound != nil) != (list.kind == "end_to_end") {
				t.Errorf("%s %s: bound present = %v", list.kind, m.Name, m.Bound != nil)
			}
		}
	}
}
