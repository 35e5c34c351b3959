package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"maskfrac/internal/telemetry"
)

// spanNode is a captured, ended span: the benchmark folds these after
// the traced phase, so nothing here runs while measuring.
type spanNode struct {
	name     string
	start    time.Time
	dur      time.Duration
	attrs    map[string]string
	children []*spanNode
}

// capture copies an ended span tree, including node subtrees stitched
// in through traceparent propagation.
func capture(s *telemetry.Span) *spanNode {
	n := &spanNode{name: s.Name, start: s.Start, dur: s.Duration()}
	if attrs := s.Attrs(); len(attrs) > 0 {
		n.attrs = make(map[string]string, len(attrs))
		for _, a := range attrs {
			n.attrs[a.Key] = fmt.Sprint(a.Value)
		}
	}
	for _, c := range s.Children() {
		n.children = append(n.children, capture(c))
	}
	return n
}

func (n *spanNode) end() time.Time { return n.start.Add(n.dur) }

// num returns a numeric attribute, 0 when absent.
func (n *spanNode) num(key string) float64 {
	v, _ := strconv.ParseFloat(n.attrs[key], 64)
	return v
}

// walk visits n and its descendants depth-first with their parents.
func (n *spanNode) walk(fn func(s, parent *spanNode)) {
	var rec func(s, parent *spanNode)
	rec = func(s, parent *spanNode) {
		fn(s, parent)
		for _, c := range s.children {
			rec(c, s)
		}
	}
	rec(n, nil)
}

// selfTime is the span's duration minus the part of its interval its
// children cover. Children may overlap (regions solve in parallel), so
// their clipped intervals are merged first.
func (n *spanNode) selfTime() time.Duration {
	if len(n.children) == 0 {
		return n.dur
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(n.children))
	for _, c := range n.children {
		a, b := c.start, c.end()
		if a.Before(n.start) {
			a = n.start
		}
		if b.After(n.end()) {
			b = n.end()
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return n.dur - covered
}

// layerOf maps a span name to the module whose self time it measures.
// The self time of the facade's solve span and of engine regions is the
// solver method's own work (a single-region instance has no region
// span, and proto-eda records no spans); a node's per-shape span is the
// cache path.
func layerOf(name, method string) string {
	switch {
	case strings.HasPrefix(name, "bench."):
		return "bench"
	case name == "cover.problem", name == "sample", name == "evaluate":
		return "cover"
	case name == "plan", name == "stitch":
		return "engine"
	case name == "solve", name == "region":
		return strings.ReplaceAll(strings.TrimSuffix(method, "-l"), "-", "")
	case strings.HasPrefix(name, "mbf."), strings.HasPrefix(name, "fixup."):
		return "mbf"
	case name == "fracd.shape":
		return "shapecache"
	case strings.HasPrefix(name, "fracd."):
		return "fracserve"
	case strings.HasPrefix(name, "cluster."):
		return "cluster"
	case strings.HasPrefix(name, "maskio."):
		return "maskio"
	case strings.HasPrefix(name, "shapecache."):
		return "shapecache"
	}
	return "other"
}

// mbfPhases are the mbf passes the budget reports as rows of their own;
// the spans below one (iterations, coloring steps, fixup passes) count
// toward it.
var mbfPhases = map[string]bool{
	"mbf.approximate": true, "mbf.refine": true, "mbf.polish": true, "mbf.cleanup": true, "mbf.lshots": true,
}

// rowOf names the budget row a span's self time goes to: its layer, with
// mbf split by pass and a cluster attempt's self time (the HTTP round
// trip around the node's handler) reported as cluster.transport.
func rowOf(name, parentRow, method string) string {
	switch {
	case mbfPhases[name]:
		return name
	case mbfPhases[parentRow] && (strings.HasPrefix(name, "mbf.") || strings.HasPrefix(name, "fixup.")):
		return parentRow
	case name == "cluster.attempt":
		return "cluster.transport"
	}
	return layerOf(name, method)
}

// rowSelf sums self time by budget row within one root operation.
func rowSelf(root *spanNode, method string) map[string]time.Duration {
	out := make(map[string]time.Duration)
	var rec func(s *spanNode, parentRow string)
	rec = func(s *spanNode, parentRow string) {
		row := rowOf(s.name, parentRow, method)
		out[row] += s.selfTime()
		for _, c := range s.children {
			rec(c, row)
		}
	}
	rec(root, "")
	return out
}

// spanTotals sums span durations by name within one root operation.
func spanTotals(root *spanNode) map[string]time.Duration {
	out := make(map[string]time.Duration)
	root.walk(func(s, _ *spanNode) { out[s.name] += s.dur })
	return out
}

// spanMetric names the span whose per-operation total a per-layer time
// metric reports, and the unit scale.
var spanMetrics = []struct {
	metric, span string
	scale        time.Duration
}{
	{"cover.problem_ms", "cover.problem", time.Millisecond},
	{"cover.evaluate_ms", "evaluate", time.Millisecond},
	{"mbf.approximate_ms", "mbf.approximate", time.Millisecond},
	{"mbf.refine_ms", "mbf.refine", time.Millisecond},
	{"mbf.polish_ms", "mbf.polish", time.Millisecond},
	{"mbf.cleanup_ms", "mbf.cleanup", time.Millisecond},
	{"mbf.lshots_ms", "mbf.lshots", time.Millisecond},
	{"engine.plan_ms", "plan", time.Millisecond},
	{"engine.stitch_ms", "stitch", time.Millisecond},
	{"maskio.read_ms", "maskio.read", time.Millisecond},
}

// foldLayers turns the traced phase's root spans into the per-layer
// metrics: per-operation medians of span totals, counts summed from
// span attributes, and node-side timings read from the stitched
// subtrees. Workload-computed values in obs.layers take precedence.
func foldLayers(obs *observation) map[string]float64 {
	out := make(map[string]float64)
	perName := make(map[string][]float64)
	var (
		lookups, solves, transport, waits, handler []float64
		refineLshots                               time.Duration
		iters, pairs, cands, regions               float64
		regionTime, parallelCap                    float64
	)
	for _, root := range obs.roots {
		totals := spanTotals(root)
		for _, sm := range spanMetrics {
			if d, ok := totals[sm.span]; ok {
				perName[sm.metric] = append(perName[sm.metric], float64(d)/float64(sm.scale))
			}
		}
		refineLshots += totals["mbf.refine"] + totals["mbf.lshots"]
		var opTransport time.Duration
		attempts := 0
		root.walk(func(s, parent *spanNode) {
			switch s.name {
			case "mbf.refine":
				iters += s.num("iterations")
			case "mbf.lshots":
				pairs += s.num("pairs")
				cands += s.num("candidates")
			case "plan":
				regions += s.num("regions")
			case "solve":
				if parent != nil && parent.name == "fracd.shape" && parent.attrs["cache_hit"] == "false" {
					solves = append(solves, ms(s.dur))
				}
				var rsum time.Duration
				nreg := 0
				for _, c := range s.children {
					if c.name == "region" {
						rsum += c.dur
						nreg++
					}
				}
				if nreg > 1 {
					regionTime += float64(rsum)
					parallelCap += float64(s.dur) * float64(min(nreg, nprocWorkers()))
				}
			case "fracd.shape":
				if s.attrs["cache_hit"] == "true" {
					lookups = append(lookups, float64(s.dur)/float64(time.Microsecond))
				}
				if parent != nil && parent.name == "fracd.fracture" {
					waits = append(waits, ms(s.start.Sub(parent.start)))
				}
			case "fracd.fracture":
				handler = append(handler, ms(s.selfTime()))
			case "cluster.attempt":
				attempts++
				opTransport += s.selfTime()
			}
		})
		if attempts > 0 {
			transport = append(transport, ms(opTransport))
		}
	}
	for metric, v := range perName {
		out[metric] = median(v)
	}
	out["shapecache.lookup_us"] = median(lookups)
	out["protoeda.solve_ms"] = median(solves)
	out["cluster.transport_ms"] = median(transport)
	out["fracserve.wait_ms"] = median(waits)
	out["fracserve.handler_self_ms"] = median(handler)
	out["mbf.iters"] = iters
	out["mbf.lpairs"] = pairs
	out["mbf.lpair_ratio"] = ratio(pairs, cands)
	out["engine.regions"] = regions
	out["engine.parallel_eff"] = ratio(regionTime, parallelCap)
	if px := obs.layers["cover.px_scored"] + obs.layers["cover.px_mutated"]; px > 0 {
		out["cover.ns_per_px"] = float64(refineLshots) / px
	}
	for k, v := range obs.layers {
		out[k] = v
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// budgetTable renders the per-layer budget of a traced phase: for each
// row (a layer, or an mbf pass) the p50 and tail of its self time per
// operation, and its share of end-to-end time (the sum of root span
// durations). Parallel work can make shares add up to more than 100%.
func budgetTable(workload string, obs *observation, overhead float64) string {
	perLayerSelf := make(map[string][]float64)
	totals := make(map[string]time.Duration)
	var e2e time.Duration
	for _, root := range obs.roots {
		e2e += root.dur
		rows := rowSelf(root, obs.method)
		for _, m := range obs.moved {
			d := min(m.d, rows[m.from])
			rows[m.from] -= d
			rows[m.to] += d
		}
		for row, d := range rows {
			perLayerSelf[row] = append(perLayerSelf[row], ms(d))
			totals[row] += d
		}
	}
	layers := make([]string, 0, len(totals))
	for l := range totals {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return totals[layers[i]] > totals[layers[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer budget: %s (%d traced operations, %.1f ms end to end)\n", workload, len(obs.roots), ms(e2e))
	fmt.Fprintf(&b, "  %-18s %12s %12s %-8s %8s\n", "layer", "self p50 ms", "self tail ms", "(tail)", "share")
	for _, l := range layers {
		v := perLayerSelf[l]
		tail, q := tailOf(v)
		fmt.Fprintf(&b, "  %-18s %12.3f %12.3f %-8s %7.1f%%\n", l, median(v), tail,
			fmt.Sprintf("p%g", q.percentile), 100*float64(totals[l])/float64(max(e2e, 1)))
	}
	fmt.Fprintf(&b, "  %-18s %+11.1f%% of untraced p50 latency\n", "trace overhead", 100*overhead)
	return b.String()
}
