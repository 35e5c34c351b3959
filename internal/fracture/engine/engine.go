package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/telemetry"
)

// Region is one independent cluster of an instance's targets: no shot
// placed for its targets can change the dose at any constrained pixel
// of another region, and vice versa.
type Region struct {
	Targets []int     // indices into Problem.Targets, ascending
	Bounds  geom.Rect // union of the member targets' bounding boxes
}

// Plan clusters the problem's targets into provably independent regions
// with a union-find over bounding boxes inflated by the interaction
// radius 3σ+γ. The truncated Gaussian kernel delivers exactly zero dose
// beyond 3σ of a shot edge and the solvers keep shots within the
// γ-neighborhood of their targets, so two clusters whose inflated boxes
// are disjoint — farther apart than 2·(3σ+γ) — cannot affect each
// other's constrained pixels: splitting them is exact, with zero
// quality loss. Regions are ordered by their smallest target index and
// list their targets ascending, which fixes the stitch order.
func Plan(p *cover.Problem) []Region {
	n := len(p.Targets)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	r := p.InteractionRadius()
	boxes := make([]geom.Rect, n)
	for i, t := range p.Targets {
		boxes[i] = t.Bounds().Inset(-r)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if boxes[i].Overlaps(boxes[j]) {
				ri, rj := find(i), find(j)
				if ri != rj {
					if rj < ri {
						ri, rj = rj, ri
					}
					parent[rj] = ri
				}
			}
		}
	}
	byRoot := make(map[int]*Region, n)
	var regions []Region
	for i, t := range p.Targets {
		root := find(i)
		reg, ok := byRoot[root]
		if !ok {
			regions = append(regions, Region{})
			reg = &regions[len(regions)-1]
			byRoot[root] = reg
		}
		reg.Targets = append(reg.Targets, i)
		if len(reg.Targets) == 1 {
			reg.Bounds = t.Bounds()
		} else {
			reg.Bounds = reg.Bounds.Union(t.Bounds())
		}
	}
	// targets are visited in ascending order, so each region's Targets
	// slice is ascending and regions are already ordered by their
	// smallest member
	return regions
}

// Config tunes one engine run.
type Config struct {
	// Method names the registered solver to run on every region.
	Method string
	// Options are the method-generic solver knobs.
	Options Options
	// Workers caps the goroutines one solve runs on — regions solved
	// concurrently, and within a region the solver's own parallel
	// passes (mbf's deletion trials); <= 0 selects GOMAXPROCS. Solve
	// makes a pool of Workers−1 tokens and attaches it to the context
	// its solvers see. Ignored when the context already carries a Pool
	// (the enclosing batch or server then owns the budget). Workers
	// never changes the result — parallel and sequential runs stitch
	// byte-identical shot lists.
	Workers int
}

// RegionResult describes one region's solve within a Result.
type RegionResult struct {
	Targets []int     // indices into Problem.Targets
	Bounds  geom.Rect // union of the region's target bounds
	Shots   int       // shots the region contributed
	Runtime time.Duration
	// Stage holds the region solver's stage statistics (nil when the
	// solver reports none).
	Stage any
}

// Result is the stitched outcome of an engine run.
type Result struct {
	// Shots is the merged shot list, ordered by (region index, shot
	// order within the region) — deterministic regardless of Workers.
	Shots []geom.Rect
	// Pairs lists L-shot pairs of Shots as {i, j} index pairs with
	// i < j, in region order with each region's pair indices offset by
	// the shots the preceding regions contributed. Nil for
	// rectangle-only methods.
	Pairs   [][2]int
	Regions []RegionResult // in region order
}

// Solve runs the decompose–solve–stitch pipeline: plan the independent
// regions, solve each as its own subproblem — the caller plus bounded
// pool-token helpers work-steal regions off a size-sorted queue,
// largest first — and merge the shot lists in region order. A
// single-region instance
// (the common case: one shape, or a main feature whose SRAFs all sit
// within interaction range) is solved directly on the original problem
// with no subproblem construction. Either way the solver sees the pool
// on its context, so a single region's solver can put the idle tokens
// to work itself. When ctx carries a telemetry trace,
// the run records "plan", per-region "region" and "stitch" spans.
func Solve(ctx context.Context, p *cover.Problem, cfg Config) (*Result, error) {
	fn, ok := Lookup(cfg.Method)
	if !ok {
		return nil, fmt.Errorf("engine: unknown method %q (registered: %s)",
			cfg.Method, strings.Join(Names(), ", "))
	}
	_, planSpan := telemetry.StartSpan(ctx, "plan")
	regions := Plan(p)
	planSpan.Set("targets", len(p.Targets))
	planSpan.Set("regions", len(regions))
	planSpan.End()

	pool := PoolFrom(ctx)
	if pool == nil {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		// the calling goroutine solves too, so it needs workers-1 extras
		pool = NewPool(workers - 1)
		ctx = WithPool(ctx, pool)
	}
	if len(regions) == 1 {
		start := time.Now()
		sol, err := fn(ctx, p, cfg.Options)
		if err != nil {
			return nil, err
		}
		return &Result{
			Shots: sol.Shots,
			Pairs: sol.Pairs,
			Regions: []RegionResult{{
				Targets: regions[0].Targets,
				Bounds:  regions[0].Bounds,
				Shots:   len(sol.Shots),
				Runtime: time.Since(start),
				Stage:   sol.Stage,
			}},
		}, nil
	}

	results := make([]RegionResult, len(regions))
	shots := make([][]geom.Rect, len(regions))
	pairs := make([][][2]int, len(regions))
	errs := make([]error, len(regions))
	solveRegion := func(i int) {
		rctx, span := telemetry.StartSpan(ctx, "region")
		span.Set("index", i)
		span.Set("targets", len(regions[i].Targets))
		defer span.End()
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		start := time.Now()
		sub, err := p.Subproblem(regions[i].Targets)
		if err != nil {
			errs[i] = fmt.Errorf("engine: region %d: %w", i, err)
			return
		}
		// return the subproblem's evaluator buffers to the process-wide
		// arena pool once the region is solved
		defer sub.Recycle()
		sol, err := fn(rctx, sub, cfg.Options)
		if err != nil {
			errs[i] = fmt.Errorf("engine: region %d: %w", i, err)
			return
		}
		shots[i] = sol.Shots
		pairs[i] = sol.Pairs
		results[i] = RegionResult{
			Targets: regions[i].Targets,
			Bounds:  regions[i].Bounds,
			Shots:   len(sol.Shots),
			Runtime: time.Since(start),
			Stage:   sol.Stage,
		}
		span.Set("shots", len(sol.Shots))
	}
	// Work-stealing over the size-sorted region queue: the caller and
	// every pool-token helper loop popping the largest remaining region
	// (LPT order), so workers that finish small regions immediately
	// steal the next one instead of being assigned a fixed share. With
	// no token free the caller drains the whole queue inline — the
	// engine always makes progress with zero extra concurrency.
	// A region solver's panic surfaces on the calling goroutine once
	// every helper has stopped (Pool.Fan), as it would sequentially.
	queue := newRegionQueue(p, regions)
	pool.Fan(len(regions)-1, func(stealing bool) {
		for {
			i, ok := queue.pop()
			if !ok {
				return
			}
			if stealing {
				engineStealsTotal.Add(1)
			}
			solveRegion(i)
		}
	}, queue.close)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	_, stitchSpan := telemetry.StartSpan(ctx, "stitch")
	total := 0
	for _, s := range shots {
		total += len(s)
	}
	merged := make([]geom.Rect, 0, total)
	var mergedPairs [][2]int
	for ri, s := range shots {
		// re-base the region's L-shot pair indices onto the merged list:
		// the region's shot k sits at position base+k after the stitch
		base := len(merged)
		for _, pr := range pairs[ri] {
			mergedPairs = append(mergedPairs, [2]int{base + pr[0], base + pr[1]})
		}
		merged = append(merged, s...)
	}
	stitchSpan.Set("regions", len(regions))
	stitchSpan.Set("shots", total)
	stitchSpan.Set("pairs", len(mergedPairs))
	stitchSpan.End()
	return &Result{Shots: merged, Pairs: mergedPairs, Regions: results}, nil
}
