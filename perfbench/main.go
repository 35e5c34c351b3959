// Command perfbench is the repository benchmark: one command that runs
// a named workload against the fracturing library, the shape cache and
// an in-process three-node fracd cluster, checks every answer, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics and a per-layer time budget). Run it through run.sh from the
// repository root:
//
//	bash perfbench/run.sh --workload ilt-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits non-zero
// when any correctness check fails. README.md describes the workloads,
// the metrics and the layer-to-end-to-end predictions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// tiny shrinks every workload to a few operations (smoke tests).
	tiny bool
	// inject names a deliberate answer corruption the checks must
	// catch (negative tests); "" runs clean.
	inject string
	out    string
}

// workload is one named benchmark input and load pattern.
type workload struct {
	name string
	why  string
	// setup builds the workload's inputs and services. It runs several
	// times per invocation (setup_s is the median); only the last
	// environment is measured.
	setup func(cfg config) (env, error)
}

// env is a set-up workload, ready to measure.
type env interface {
	// measure runs the load for d (or the workload's fixed work list)
	// and returns what it observed. traced runs wrap every operation in
	// a benchmark-side root span.
	measure(d time.Duration, traced bool) (*observation, error)
	close()
}

// observation is what one measured phase saw.
type observation struct {
	attempted, failed int64
	failures          []string
	// latencies are per-operation end-to-end times (per instance,
	// pipeline run or request).
	latencies []time.Duration
	elapsed   time.Duration
	// items is the throughput numerator: instances, placements or
	// completed requests.
	items   float64
	itemsAs string // workload-level name of the throughput metric
	flashes int64
	failPx  int64
	// exact reports whether the solver method is deterministic, so the
	// flash and violation totals repeat bit-for-bit with one seed.
	exact bool
	// roots are the benchmark-side root spans (traced runs only).
	roots []*spanNode
	// layers are per-layer metrics computed by the workload itself
	// (counter deltas, ratios); the span fold fills in the rest.
	layers map[string]float64
	// method is the solver method whose region self time is attributed
	// to its own layer in the budget.
	method string
	// notes are findings printed with the result that are not metrics.
	notes []string
	// moved is self time the budget moves from one row to another in
	// every operation: work timed alone because it runs inside another
	// layer's span without a boundary of its own.
	moved []move
}

type move struct {
	from, to string
	d        time.Duration
}

func (o *observation) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = []workload{iltCold, maskPipeline, soakMixed}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "workload name: ilt-cold, mask-pipeline or soak-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	flag.BoolVar(&cfg.tiny, "tiny", false, "shrink the workload to a few operations (smoke tests)")
	flag.StringVar(&cfg.inject, "inject", "", "corrupt one answer before checking: fail-count (ilt-cold), class-flash (mask-pipeline) or hit-shift (soak-mixed)")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench-results", "directory for result records and budget tables")
	flag.Parse()
	cfg.trace = *trace == 1
	code, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one invocation and returns the exit code. A setup or
// infrastructure error returns before any result line is printed.
func run(cfg config, stdout io.Writer) (int, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return 2, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return 2, fmt.Errorf("seconds must be at least 1")
	}
	if cfg.inject != "" && !knownFault(wl.name, cfg.inject) {
		return 2, fmt.Errorf("workload %s has no fault %q", wl.name, cfg.inject)
	}

	setups := 3
	if cfg.tiny {
		setups = 1
	}
	var (
		e      env
		setupT []float64
	)
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		e, err = wl.setup(cfg)
		if err != nil {
			return 1, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		setupT = append(setupT, time.Since(t0).Seconds())
	}
	defer e.close()

	d := time.Duration(cfg.seconds) * time.Second
	var (
		res    *result
		budget string
	)
	if cfg.trace {
		// the untraced and traced halves measure the same load, so their
		// ratio is the tracing overhead
		plain, err := e.measure(d/2, false)
		if err != nil {
			return 1, err
		}
		traced, err := e.measure(d/2, true)
		if err != nil {
			return 1, err
		}
		overhead := ratio(median(durationsMS(traced.latencies)), median(durationsMS(plain.latencies))) - 1
		layers := foldLayers(traced)
		layers["bench.trace_overhead"] = overhead
		layers["cover.fail_px"] = float64(traced.failPx)
		res = newResult(plain, traced)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{Value: finite(layers[m.name]), Unit: m.unit}
		}
		budget = budgetTable(wl.name, traced, overhead)
	} else {
		stopSampling := sampleHeap()
		obs, err := e.measure(d, false)
		heap := stopSampling()
		if err != nil {
			return 1, err
		}
		res = newResult(obs)
		tail, q := tailOf(durationsMS(obs.latencies))
		vals := map[string]float64{
			"setup_s":          median(setupT),
			"throughput_per_s": obs.items / obs.elapsed.Seconds(),
			"latency_ms_p50":   median(durationsMS(obs.latencies)),
			"latency_ms_tail":  tail,
			"flashes":          float64(obs.flashes),
			"mem_heap_mb":      median(heap),
			"mem_sys_mb":       memSysMB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: finite(vals[m.name]), Unit: m.unit}
		}
		res.summary = append(summaryLines(obs, vals, q), res.summary...)
	}

	meta := metadata(cfg, wl, setupT)
	for _, line := range res.summary {
		fmt.Fprintln(stdout, line)
	}
	if budget != "" {
		fmt.Fprint(stdout, budget)
	}
	for _, f := range res.failures {
		fmt.Fprintln(stdout, "check failed:", f)
	}
	metaJSON, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "%s\n", metaJSON)
	final, _ := json.Marshal(res)
	if err := saveRecord(cfg, metaJSON, final, budget); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result record not saved:", err)
	}
	fmt.Fprintf(stdout, "%s\n", final)
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed their checks", res.Failed, res.Attempted)
	}
	return 0, nil
}

// faults are the deliberate answer corruptions each workload's checks
// must catch.
var faults = map[string]string{
	"ilt-cold":      "fail-count",
	"mask-pipeline": "class-flash",
	"soak-mixed":    "hit-shift",
}

func knownFault(workload, fault string) bool { return faults[workload] == fault }

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	failures []string
	summary  []string
}

func newResult(obs ...*observation) *result {
	r := &result{Metrics: make(map[string]metricValue)}
	for _, o := range obs {
		r.Attempted += o.attempted
		r.Failed += o.failed
		r.failures = append(r.failures, o.failures...)
		r.summary = append(r.summary, o.notes...)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// summaryLines renders every end-to-end figure by name and unit,
// including the ones the final line reports under a generic name
// (shapes_per_s, placements_per_s), folds into attempted/failed, or
// leaves out because they cannot carry a bound.
func summaryLines(obs *observation, vals map[string]float64, q tailPick) []string {
	countKind := "count (exact)"
	if !obs.exact {
		countKind = "count (not bit-exact: " + obs.method + " is not deterministic)"
	}
	lines := []string{
		fmt.Sprintf("setup_s          %12.4f s", vals["setup_s"]),
		fmt.Sprintf("%-16s %12.4f 1/s", obs.itemsAs, vals["throughput_per_s"]),
		fmt.Sprintf("latency_ms_p50   %12.4f ms  (n=%d)", vals["latency_ms_p50"], len(obs.latencies)),
		fmt.Sprintf("latency_ms_tail  %12.4f ms  (p%g, %d samples beyond)", vals["latency_ms_tail"], q.percentile, q.beyond),
		fmt.Sprintf("flashes          %12d %s", obs.flashes, countKind),
		fmt.Sprintf("fail_px          %12d %s", obs.failPx, countKind),
		fmt.Sprintf("failed_ratio     %12.4f ratio (%d/%d)", ratio(float64(obs.failed), float64(obs.attempted)), obs.failed, obs.attempted),
		fmt.Sprintf("mem_heap_mb      %12.4f MB  (median of heap samples every 50 ms)", vals["mem_heap_mb"]),
		fmt.Sprintf("mem_sys_mb       %12.4f MB  (runtime.MemStats.Sys at the end)", vals["mem_sys_mb"]),
	}
	return lines
}

// sampleHeap samples the bytes held by heap objects every 50 ms until
// the returned function is called; that function returns the samples
// in MB.
func sampleHeap() func() []float64 {
	stop := make(chan struct{})
	out := make(chan []float64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var v []float64
		for {
			metrics.Read(s)
			v = append(v, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-stop:
				out <- v
				return
			case <-tick.C:
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-out
	}
}

func memSysMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// metadata is recorded with every result: the hardware fingerprint,
// the seed and source revision, why the workload exists, which metrics
// are exact counts, and the layer-to-end-to-end prediction map.
func metadata(cfg config, wl *workload, setupT []float64) map[string]any {
	var exact []string
	if wl.name == iltCold.name {
		for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
			if m.exact {
				exact = append(exact, m.name)
			}
		}
	}
	return map[string]any{
		"workload": wl.name,
		"why":      wl.why,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"commit":   commitID(),
		"hardware": map[string]any{
			"cpu_model":  cpuModel(),
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go_version": runtime.Version(),
			"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		},
		"setup_s_runs": setupT,
		"exact":        exact,
		"predictions":  predictions,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID identifies the measured source by a hash of the Go sources
// and module files under the repository root: the checkout the
// benchmark runs in need not be a git repository.
func commitID() string {
	root := ".."
	if _, err := os.Stat("perfbench/go.mod"); err == nil {
		root = "."
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not change the fingerprint
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// saveRecord writes the metadata, the result line and the budget table
// under cfg.out, one file per invocation.
func saveRecord(cfg config, meta, final []byte, budget string) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	rec := fmt.Sprintf("{\"meta\":%s,\"result\":%s,\"budget\":%q}\n", meta, final, budget)
	return os.WriteFile(filepath.Join(cfg.out, name), []byte(rec), 0o644)
}
