package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"maskfrac"
	"maskfrac/internal/cluster"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/telemetry"
)

var soakMixed = workload{
	name: "soak-mixed",
	why:  "open loop, 200 req/s, at most nproc in flight: 95% cache reads in varied D4 frames, 5% novel proto-eda solves sharing node workers, queues and CPUs",
	setup: func(cfg config) (env, error) {
		return newSoak(cfg)
	},
}

const (
	soakRate       = 200.0 // requests per second
	soakNovelEvery = 20    // one request in 20 (5%) is a novel shape
	soakMethod     = "proto-eda"
	// soakNovelSeed is the first generator seed of the novel clips. Like
	// the dictionary they are fixed: proto-eda time per clip ranges from
	// 5 ms to 200 ms, so a seeded set moves the p99 by tens of percent
	// from seed to seed. The seed draws which requests are novel.
	soakNovelSeed = 5000
)

// soakRequest is one scheduled request in its query frame.
type soakRequest struct {
	due   time.Duration // offset from the phase start
	poly  geom.Polygon
	class int // dictionary index; -1-j for the j-th novel clip
	// frame maps the class's base polygon into the query frame.
	orient maskio.Orient
	offset geom.Point
}

type soakEnv struct {
	cfg    config
	fleet  *fleet
	dict   []geom.Polygon
	ref    []classRef
	sched  []soakRequest
	cursor int
}

// newSoak starts three nodes with nproc solver workers each, warms their
// caches with a fixed 24-class dictionary and draws the seeded request
// schedule for the whole run: each request is a dictionary class in a
// random D4 frame and integer offset, or (every 20th) the next novel ILT
// clip.
func newSoak(cfg config) (*soakEnv, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	classes, n := 24, int(soakRate*float64(cfg.seconds))
	if cfg.tiny {
		classes, n = 2, 40
	}
	e := &soakEnv{cfg: cfg, dict: dictionary(soakClassSeed, classes)}
	e.sched = make([]soakRequest, n)
	for i := range e.sched {
		e.sched[i] = soakRequest{
			due:    time.Duration(float64(i) / soakRate * float64(time.Second)),
			orient: orients[rng.Intn(len(orients))],
			offset: geom.Pt(float64(rng.Intn(1_000_000)), float64(rng.Intn(1_000_000))),
			class:  rng.Intn(classes),
		}
	}
	// every soakNovelEvery-th request, from a seeded phase, is the next
	// novel clip: evenly spaced misses keep two cold solves from
	// queueing on one node worker more often in one run than another
	phase := rng.Intn(soakNovelEvery)
	if cfg.tiny {
		phase = 1
	}
	for j, i := 0, phase; i < n; j, i = j+1, i+soakNovelEvery {
		e.sched[i].class = -1 - j
	}
	// novel clips cost milliseconds each to generate; build them and
	// the query polygons on nproc goroutines
	parallel(n, func(i int) {
		r := &e.sched[i]
		base := e.dict[max(r.class, 0)]
		if r.class < 0 {
			j := -1 - r.class
			base = snappedClip(int64(soakNovelSeed+j), 2+j%2)
		}
		r.poly = make(geom.Polygon, len(base))
		for j, v := range base {
			r.poly[j] = r.orient.Apply(v).Add(r.offset)
		}
	})
	f, err := startFleet(nprocWorkers(), soakMethod, true)
	if err != nil {
		return nil, err
	}
	e.fleet = f
	warmErr := make([]error, len(e.dict))
	parallel(len(e.dict), func(k int) {
		can := shapecache.Canonicalize(e.dict[k])
		_, warmErr[k] = f.client.SolveClass(context.Background(), can.KeyWith([]byte(soakMethod)), can.Poly)
	})
	if err := errors.Join(warmErr...); err != nil {
		f.close()
		return nil, fmt.Errorf("warm the nodes: %w", err)
	}
	return e, nil
}

// parallel runs fn(0..n-1) on nproc goroutines and waits for them.
func parallel(n int, fn func(i int)) {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < nprocWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func (e *soakEnv) close() { e.fleet.close() }

// soakAnswer is one completed request.
type soakAnswer struct {
	can shapecache.Canonical
	res *cluster.ClassResult
	err error
}

// measure sends the next d of the schedule open loop: the generator
// hands each request to one of nproc senders at its due time, or as
// soon as one is free, and latency runs from the due time.
func (e *soakEnv) measure(d time.Duration, traced bool) (*observation, error) {
	obs := &observation{itemsAs: "requests_per_s", method: soakMethod, layers: make(map[string]float64)}
	if e.ref == nil {
		c := e.fleet.newClient(true)
		for _, p := range e.dict {
			r, err := fetchReference(c, shapecache.Canonicalize(p), soakMethod)
			if err != nil {
				return nil, fmt.Errorf("reference: %w", err)
			}
			e.ref = append(e.ref, r)
		}
		reportReferences(obs, e.ref)
	}
	n := int(soakRate * d.Seconds())
	if e.cfg.tiny {
		n = len(e.sched) / 2
	}
	reqs := e.sched[e.cursor:min(e.cursor+n, len(e.sched))]
	e.cursor += len(reqs)
	if len(reqs) == 0 {
		return nil, fmt.Errorf("soak schedule exhausted")
	}
	base := reqs[0].due
	ctx := context.Background()
	before, err := e.fleet.counters(ctx)
	if err != nil {
		return nil, err
	}
	answers := make([]soakAnswer, len(reqs))
	latency := make([]time.Duration, len(reqs))
	late := make([]float64, len(reqs))
	roots := make([]*telemetry.Span, len(reqs))
	var (
		wg      sync.WaitGroup
		lastEnd time.Time
		endMu   sync.Mutex
	)
	work := make(chan int)
	start := time.Now()
	for w := 0; w < nprocWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				due := start.Add(reqs[i].due - base)
				rctx := ctx
				if traced {
					rctx, roots[i] = telemetry.WithTrace(ctx, "bench.request")
				}
				_, csp := telemetry.StartSpan(rctx, "shapecache.canon")
				can := shapecache.Canonicalize(reqs[i].poly)
				key := can.KeyWith([]byte(soakMethod))
				csp.End()
				res, err := e.fleet.client.SolveClass(rctx, key, can.Poly)
				done := time.Now()
				roots[i].End()
				latency[i] = done.Sub(due)
				answers[i] = soakAnswer{can: can, res: res, err: err}
				endMu.Lock()
				if done.After(lastEnd) {
					lastEnd = done
				}
				endMu.Unlock()
			}
		}()
	}
	for i := range reqs {
		due := start.Add(reqs[i].due - base)
		time.Sleep(time.Until(due))
		work <- i
		late[i] = ms(time.Since(due))
	}
	close(work)
	wg.Wait()
	obs.elapsed = lastEnd.Sub(start)
	after, err := e.fleet.counters(ctx)
	if err != nil {
		return nil, err
	}
	layerDeltas(before, after, obs.layers)
	obs.layers["bench.late_ms_tail"], _ = tailOf(late)
	obs.latencies = latency
	for _, r := range roots {
		if r != nil {
			obs.roots = append(obs.roots, capture(r))
		}
	}

	injected := false
	for i, a := range answers {
		obs.attempted++
		if a.err != nil {
			obs.fail("request %d: %v", i, a.err)
			continue
		}
		obs.items++
		obs.flashes += int64(a.res.ShotCount - len(a.res.LPairs))
		obs.failPx += int64(a.res.FailOn + a.res.FailOff)
		if e.cfg.inject == "hit-shift" && !injected && reqs[i].class >= 0 && len(a.res.Shots) > 0 {
			a.res.Shots[0].X0++
			a.res.Shots[0].X1++
			injected = true
		}
		if err := e.check(reqs[i], a); err != nil {
			obs.fail("request %d: %v", i, err)
		}
	}
	return obs, nil
}

// check verifies one answer. A hit's shots, mapped into the query
// frame, must equal the class's stored answer mapped through the
// request's own frame transform; a novel shape's answer must re-score
// to its reported counts.
func (e *soakEnv) check(r soakRequest, a soakAnswer) error {
	got := a.can.FromCanonical(a.res.Shots)
	if r.class < 0 {
		return checkSolution([]geom.Polygon{a.can.Poly}, maskfrac.DefaultParams(), a.res.Shots, a.res.LPairs, a.res.FailOn, a.res.FailOff)
	}
	ref := e.ref[r.class]
	if a.res.FailOn != ref.failOn || a.res.FailOff != ref.failOff {
		return fmt.Errorf("hit fail on/off %d/%d, stored answer %d/%d", a.res.FailOn, a.res.FailOff, ref.failOn, ref.failOff)
	}
	baseShots := shapecache.Canonicalize(e.dict[r.class]).FromCanonical(ref.shots)
	if len(got) != len(baseShots) {
		return fmt.Errorf("hit has %d shots, stored answer %d", len(got), len(baseShots))
	}
	for i, s := range baseShots {
		p, q := r.orient.Apply(geom.Pt(s.X0, s.Y0)).Add(r.offset), r.orient.Apply(geom.Pt(s.X1, s.Y1)).Add(r.offset)
		want := geom.Rect{X0: math.Min(p.X, q.X), Y0: math.Min(p.Y, q.Y), X1: math.Max(p.X, q.X), Y1: math.Max(p.Y, q.Y)}
		if g := got[i]; math.Abs(g.X0-want.X0)+math.Abs(g.Y0-want.Y0)+math.Abs(g.X1-want.X1)+math.Abs(g.Y1-want.Y1) > 1e-6 {
			return fmt.Errorf("hit shot %d is %v, the stored answer mapped into the query frame is %v", i, g, want)
		}
	}
	return nil
}
