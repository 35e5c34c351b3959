package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"maskfrac"
	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/geom"
	"maskfrac/internal/shapegen"
	"maskfrac/internal/telemetry"
)

var iltCold = workload{
	name: "ilt-cold",
	why:  "closed loop, one caller: cold mbf-l solves (sampling included, no cache) of ILT clips and 4-region SRAF instances; cover, mbf and engine do the work",
	setup: func(cfg config) (env, error) {
		return newILTCold(cfg), nil
	},
}

// The instance set is fixed; the run seed only draws the order. Per-clip
// mbf-l time ranges from 0.1 s to 5 s (4-cluster SRAF instances 0.9 s to
// 3 s) and changes unpredictably with the shape and even its D4 frame,
// so a set drawn per seed moves a 30 s run's figures by 10-15% from seed
// to seed, more than the regressions the bounds must catch.
const (
	iltClipSeed = 1000
	srafSeed    = 3000
)

// coldInstance is one fracturing instance: a single ILT clip, or four
// SRAF clusters far enough apart that the engine solves them as four
// regions.
type coldInstance struct {
	name    string
	targets []geom.Polygon
}

type iltColdEnv struct {
	cfg       config
	params    maskfrac.Params
	instances []coldInstance
}

// newILTCold builds the work list: per 2.4 s of measurement one ILT
// clip (2 or 3 blobs) and one 4-cluster SRAF instance, in a seeded
// order. The list is fixed work: one pass is one measurement.
func newILTCold(cfg config) *iltColdEnv {
	rng := rand.New(rand.NewSource(cfg.seed))
	n := int(math.Ceil(float64(cfg.seconds) / 2.4))
	if cfg.tiny {
		n = 1
	}
	e := &iltColdEnv{cfg: cfg, params: maskfrac.DefaultParams()}
	for i := 0; i < n; i++ {
		clip := shapegen.ILTShape(int64(iltClipSeed+i), 2+i%2)
		e.instances = append(e.instances, coldInstance{
			name:    fmt.Sprintf("ilt-%d", iltClipSeed+i),
			targets: []geom.Polygon{clip.Target},
		})
		var targets []geom.Polygon
		for c := 0; c < 4; c++ {
			for _, p := range shapegen.SRAFCluster(int64(srafSeed+4*i+c), 4) {
				targets = append(targets, p.Translate(geom.Pt(float64(c)*400, 0)))
			}
		}
		e.instances = append(e.instances, coldInstance{name: fmt.Sprintf("sraf4-%d", i), targets: targets})
	}
	rng.Shuffle(len(e.instances), func(i, j int) { e.instances[i], e.instances[j] = e.instances[j], e.instances[i] })
	return e
}

func (e *iltColdEnv) close() {}

// measure solves the whole work list once, each instance sampled and
// fractured with mbf-l on nproc engine workers, then checks every
// answer. The duration is ignored: the list is sized from -seconds.
func (e *iltColdEnv) measure(_ time.Duration, traced bool) (*observation, error) {
	obs := &observation{itemsAs: "shapes_per_s", method: string(maskfrac.MethodMBFL), exact: true, layers: make(map[string]float64)}
	opt := &maskfrac.Options{Workers: nprocWorkers()}
	results := make([]*maskfrac.Result, len(e.instances))
	evalBefore, arenaBefore, stealsBefore := cover.EvalCounters(), cover.ArenaCounters(), engine.StealCount()
	start := time.Now()
	for i, inst := range e.instances {
		ctx := context.Background()
		var root *telemetry.Span
		if traced {
			ctx, root = telemetry.WithTrace(ctx, "bench.instance")
		}
		t0 := time.Now()
		_, psp := telemetry.StartSpan(ctx, "cover.problem")
		prob, err := maskfrac.NewMultiProblem(inst.targets, e.params)
		psp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inst.name, err)
		}
		res, err := prob.FractureCtx(ctx, maskfrac.MethodMBFL, opt)
		obs.latencies = append(obs.latencies, time.Since(t0))
		obs.attempted++
		if err != nil {
			obs.fail("%s: %v", inst.name, err)
			continue
		}
		results[i] = res
		if root != nil {
			root.End()
			obs.roots = append(obs.roots, capture(root))
		}
	}
	obs.elapsed = time.Since(start)
	obs.items = float64(len(e.instances))
	evalAfter, arenaAfter := cover.EvalCounters(), cover.ArenaCounters()
	obs.layers["cover.px_scored"] = float64(evalAfter.PixelsScored - evalBefore.PixelsScored)
	obs.layers["cover.px_mutated"] = float64(evalAfter.PixelsMutated - evalBefore.PixelsMutated)
	obs.layers["cover.mutations"] = float64(evalAfter.Mutations - evalBefore.Mutations)
	hits, misses := arenaAfter.Hits-arenaBefore.Hits, arenaAfter.Misses-arenaBefore.Misses
	obs.layers["cover.arena_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	obs.layers["engine.steals"] = float64(engine.StealCount() - stealsBefore)

	if e.cfg.inject == "fail-count" {
		for _, r := range results {
			if r != nil {
				r.FailOn++
				break
			}
		}
	}
	for i, res := range results {
		if res == nil {
			continue
		}
		obs.flashes += int64(res.FlashCount())
		obs.failPx += int64(res.FailingPixels())
		if err := checkSolution(e.instances[i].targets, e.params, res.Shots, res.LPairs, res.FailOn, res.FailOff); err != nil {
			obs.fail("%s: %v", e.instances[i].name, err)
		}
	}
	return obs, nil
}

// checkSolution re-scores a shot list and its L-shot pairs from
// scratch on a freshly sampled problem and checks the answer's
// structure: the reported violation counts must match, every shot must
// be at least Lmin on a side, every pair must be two distinct in-range
// shots whose union is an L, and no shot may be in two pairs.
func checkSolution(targets []geom.Polygon, params maskfrac.Params, shots []geom.Rect, pairs [][2]int, failOn, failOff int) error {
	p, err := cover.NewMultiProblem(targets, params)
	if err != nil {
		return fmt.Errorf("re-sample: %w", err)
	}
	for i, s := range shots {
		if !p.MinSizeOK(s) {
			return fmt.Errorf("shot %d %v is below the minimum shot size", i, s)
		}
	}
	inPair := make(map[int]bool, 2*len(pairs))
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		if i < 0 || j < 0 || i >= len(shots) || j >= len(shots) || i == j {
			return fmt.Errorf("pair %v out of range for %d shots", pr, len(shots))
		}
		if inPair[i] || inPair[j] {
			return fmt.Errorf("pair %v reuses a shot of another pair", pr)
		}
		inPair[i], inPair[j] = true, true
		if !cover.UnionIsLShot(shots[i], shots[j]) {
			return fmt.Errorf("pair %v is not an L-shot", pr)
		}
	}
	st := p.EvaluatePaired(shots, pairs)
	if st.FailOn != failOn || st.FailOff != failOff {
		return fmt.Errorf("re-scored fail on/off %d/%d, reported %d/%d", st.FailOn, st.FailOff, failOn, failOff)
	}
	return nil
}
