package main

import (
	"math"
	"sort"
	"time"
)

// metricSpec names one reported metric. exact marks counts that repeat
// bit-for-bit across two runs of ilt-cold with one seed (the other
// workloads solve with proto-eda, which is not deterministic).
type metricSpec struct {
	name, unit, better string
	exact              bool
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with -trace 0. BENCHMARK.json lists the same
// names, units and directions.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_per_s", unit: "1/s", better: "higher"},
	{name: "latency_ms_p50", unit: "ms", better: "lower"},
	{name: "latency_ms_tail", unit: "ms", better: "lower"},
	{name: "flashes", unit: "count", better: "lower", exact: true},
}

// perLayer are the single-layer metrics every workload reports with
// -trace 1; a layer the workload does not exercise reports 0. Times are
// medians per operation unless the name says otherwise.
var perLayer = []metricSpec{
	{name: "cover.problem_ms", unit: "ms", better: "lower"},
	{name: "cover.px_scored", unit: "count", better: "lower", exact: true},
	{name: "cover.px_mutated", unit: "count", better: "lower", exact: true},
	{name: "cover.mutations", unit: "count", better: "lower", exact: true},
	{name: "cover.ns_per_px", unit: "ns", better: "lower"},
	{name: "cover.evaluate_ms", unit: "ms", better: "lower"},
	{name: "cover.arena_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cover.fail_px", unit: "count", better: "lower", exact: true},
	{name: "mbf.approximate_ms", unit: "ms", better: "lower"},
	{name: "mbf.refine_ms", unit: "ms", better: "lower"},
	{name: "mbf.polish_ms", unit: "ms", better: "lower"},
	{name: "mbf.cleanup_ms", unit: "ms", better: "lower"},
	{name: "mbf.lshots_ms", unit: "ms", better: "lower"},
	{name: "mbf.iters", unit: "count", better: "lower", exact: true},
	{name: "mbf.lpairs", unit: "count", better: "higher", exact: true},
	{name: "mbf.lpair_ratio", unit: "ratio", better: "higher"},
	{name: "engine.plan_ms", unit: "ms", better: "lower"},
	{name: "engine.stitch_ms", unit: "ms", better: "lower"},
	{name: "engine.regions", unit: "count", better: "higher", exact: true},
	{name: "engine.steals", unit: "count", better: "higher"},
	{name: "engine.parallel_eff", unit: "ratio", better: "higher"},
	{name: "maskio.read_ms", unit: "ms", better: "lower"},
	{name: "maskio.walk_ms", unit: "ms", better: "lower"},
	{name: "shapecache.canon_us", unit: "us", better: "lower"},
	{name: "shapecache.lookup_us", unit: "us", better: "lower"},
	{name: "shapecache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "shapecache.evictions", unit: "count", better: "lower"},
	{name: "shapecache.coalesced", unit: "count", better: "higher"},
	{name: "protoeda.solve_ms", unit: "ms", better: "lower"},
	{name: "cluster.pipeline_self_ms", unit: "ms", better: "lower"},
	{name: "cluster.transport_ms", unit: "ms", better: "lower"},
	{name: "cluster.retries", unit: "count", better: "lower"},
	{name: "cluster.hedges", unit: "count", better: "lower"},
	{name: "cluster.failovers", unit: "count", better: "lower"},
	{name: "cluster.dedups", unit: "count", better: "higher"},
	{name: "cluster.node_skew", unit: "ratio", better: "lower"},
	{name: "fracserve.wait_ms", unit: "ms", better: "lower"},
	{name: "fracserve.handler_self_ms", unit: "ms", better: "lower"},
	{name: "fracserve.rejected", unit: "count", better: "lower"},
	{name: "fracserve.timeouts", unit: "count", better: "lower"},
	{name: "bench.late_ms_tail", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead", unit: "ratio", better: "lower"},
}

// prediction maps a per-layer metric to the end-to-end metric and
// workload it should move.
type prediction struct {
	Layer    string `json:"layer"`
	Moves    string `json:"moves"`
	Workload string `json:"workload"`
}

var predictions = []prediction{
	{"cover.problem_ms", "latency_ms_p50", "ilt-cold"},
	{"cover.px_scored", "throughput_per_s (shapes_per_s)", "ilt-cold"},
	{"cover.px_mutated", "throughput_per_s (shapes_per_s)", "ilt-cold"},
	{"cover.mutations", "throughput_per_s (shapes_per_s)", "ilt-cold"},
	{"cover.ns_per_px", "throughput_per_s (shapes_per_s)", "ilt-cold"},
	{"cover.evaluate_ms", "mem_sys_mb and mem_heap_mb (summary lines)", "ilt-cold"},
	{"cover.arena_hit_ratio", "mem_sys_mb and mem_heap_mb (summary lines)", "ilt-cold"},
	{"cover.fail_px", "none: answer quality, the paper's CD-violation count", "all"},
	{"mbf.approximate_ms", "throughput_per_s (shapes_per_s)", "ilt-cold"},
	{"mbf.refine_ms", "throughput_per_s (shapes_per_s)", "ilt-cold"},
	{"mbf.polish_ms", "throughput_per_s (shapes_per_s)", "ilt-cold"},
	{"mbf.cleanup_ms", "throughput_per_s (shapes_per_s)", "ilt-cold"},
	{"mbf.lshots_ms", "throughput_per_s (shapes_per_s)", "ilt-cold"},
	{"mbf.iters", "throughput_per_s (shapes_per_s)", "ilt-cold"},
	{"mbf.lpairs", "flashes", "ilt-cold"},
	{"mbf.lpair_ratio", "flashes", "ilt-cold"},
	{"engine.plan_ms", "latency_ms_p50 (multi-region instances)", "ilt-cold"},
	{"engine.stitch_ms", "latency_ms_p50 (multi-region instances)", "ilt-cold"},
	{"engine.regions", "latency_ms_p50 (multi-region instances)", "ilt-cold"},
	{"engine.steals", "latency_ms_p50 (multi-region instances)", "ilt-cold"},
	{"engine.parallel_eff", "latency_ms_p50 (multi-region instances)", "ilt-cold"},
	{"maskio.read_ms", "throughput_per_s (placements_per_s)", "mask-pipeline"},
	{"maskio.walk_ms", "throughput_per_s (placements_per_s)", "mask-pipeline"},
	{"shapecache.canon_us", "throughput_per_s (placements_per_s)", "mask-pipeline"},
	{"cluster.pipeline_self_ms", "throughput_per_s (placements_per_s)", "mask-pipeline"},
	{"shapecache.lookup_us", "latency_ms_p50", "soak-mixed"},
	{"shapecache.hit_ratio", "latency_ms_p50", "soak-mixed"},
	{"shapecache.evictions", "latency_ms_p50", "soak-mixed"},
	{"shapecache.coalesced", "latency_ms_p50", "soak-mixed"},
	{"cluster.transport_ms", "latency_ms_p50", "soak-mixed"},
	{"fracserve.handler_self_ms", "latency_ms_p50", "soak-mixed"},
	{"protoeda.solve_ms", "latency_ms_tail", "soak-mixed"},
	{"fracserve.wait_ms", "latency_ms_tail", "soak-mixed"},
	{"cluster.retries", "latency_ms_tail and failed_ratio", "soak-mixed"},
	{"cluster.hedges", "latency_ms_tail and failed_ratio", "soak-mixed"},
	{"cluster.failovers", "latency_ms_tail and failed_ratio", "soak-mixed"},
	{"cluster.dedups", "latency_ms_tail and failed_ratio", "soak-mixed"},
	{"cluster.node_skew", "latency_ms_tail and failed_ratio", "soak-mixed"},
	{"fracserve.rejected", "failed_ratio", "soak-mixed"},
	{"fracserve.timeouts", "failed_ratio", "soak-mixed"},
	{"bench.late_ms_tail", "latency_ms_tail (harness health, not the program)", "soak-mixed"},
	{"bench.trace_overhead", "none: traced minus untraced latency, the cost of measuring", "all"},
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile by linear interpolation between
// closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPick records which percentile a tail figure is and how many
// samples lie beyond it.
type tailPick struct {
	percentile float64
	beyond     int
}

// tailLadder are the candidate tail percentiles, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 80, 75, 60, 50}

// tailOf returns the highest ladder percentile with at least ten
// samples beyond it. With fewer than twenty samples no percentile
// qualifies and the tail is the median, recorded as p50.
func tailOf(v []float64) (float64, tailPick) {
	n := len(v)
	for _, p := range tailLadder {
		beyond := int(math.Floor(float64(n) * (1 - p/100)))
		if beyond >= 10 {
			return quantile(v, p/100), tailPick{percentile: p, beyond: beyond}
		}
	}
	return median(v), tailPick{percentile: 50, beyond: n / 2}
}

func durationsMS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / float64(time.Millisecond)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
