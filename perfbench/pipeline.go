package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"maskfrac/internal/cluster"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/shapegen"
	"maskfrac/internal/telemetry"
)

var maskPipeline = workload{
	name: "mask-pipeline",
	why:  "closed loop: GDSII read plus cluster.RunPipeline of an 18k-placement mask over 3 warm nodes; walking, canonicalization and the pipeline memo dominate",
	setup: func(cfg config) (env, error) {
		return newMaskPipeline(cfg)
	},
}

// Fixed cell-class dictionaries: each class is one ILT-like clip. The
// seed draws the layout (orientations, tile order) but not the
// classes, so the mask's exact flash and violation totals are the same
// for every seed and can carry a tight bound.
const (
	pipelineClassSeed = 2000
	soakClassSeed     = 4000
)

const pipelineMethod = "proto-eda"

type maskPipelineEnv struct {
	cfg   config
	gds   []byte
	fleet *fleet
	// reference answers, computed before the first measurement
	ref        map[shapecache.Key]classRef
	placements int64
	flashes    int64
	failPx     int64
}

// dictionary returns n fixed ILT-like clips snapped to a quarter
// nanometer and moved to the origin, so every placement of a clip
// under an integer-nanometer origin and any D4 orientation is exact in
// float64 and canonicalizes to the same class.
func dictionary(seed int64, n int) []geom.Polygon {
	out := make([]geom.Polygon, n)
	for k := range out {
		out[k] = snappedClip(seed+int64(k), 2+k%2)
	}
	return out
}

// snappedClip is shapegen.ILTShape(seed, blobs) snapped to a quarter
// nanometer with its bounding box at the origin.
func snappedClip(seed int64, blobs int) geom.Polygon {
	t := shapegen.ILTShape(seed, blobs).Target
	bb := t.Bounds()
	var p geom.Polygon
	for _, v := range t {
		q := geom.Pt(math.Round((v.X-bb.X0)*4)/4, math.Round((v.Y-bb.Y0)*4)/4)
		if len(p) == 0 || q != p[len(p)-1] {
			p = append(p, q)
		}
	}
	if len(p) > 1 && p[0] == p[len(p)-1] {
		p = p[:len(p)-1]
	}
	return p
}

var orients = []maskio.Orient{
	maskio.OrientIdentity, maskio.OrientRot90, maskio.OrientRot180, maskio.OrientRot270,
	maskio.OrientMirrorX, maskio.OrientMirrorY, maskio.OrientTranspose, maskio.OrientAntiTranspose,
}

// newMaskPipeline writes a seeded hierarchical mask as GDSII: K class
// cells, two tile cells that place every class once under seeded D4
// orientations and a seeded tile order, and a top cell arraying both
// tiles. It then starts three nodes (one solver worker each) and warms
// their caches with one pipeline run.
func newMaskPipeline(cfg config) (*maskPipelineEnv, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	k, cols, rows := 16, 24, 24
	if cfg.tiny {
		k, cols, rows = 2, 2, 2
	}
	classes := dictionary(pipelineClassSeed, k)
	pitch := 0.0
	lib := &maskio.Library{Name: "perfbench-mask"}
	for i, c := range classes {
		bb := c.Bounds()
		pitch = math.Max(pitch, math.Max(bb.W(), bb.H()))
		lib.Cells = append(lib.Cells, &maskio.Cell{Name: fmt.Sprintf("class%02d", i), Boundaries: []geom.Polygon{c}})
	}
	pitch = math.Ceil(pitch) + 80
	tileCols := int(math.Ceil(math.Sqrt(float64(k))))
	tileRows := (k + tileCols - 1) / tileCols
	for t := 0; t < 2; t++ {
		tile := &maskio.Cell{Name: fmt.Sprintf("tile%d", t)}
		for slot, i := range rng.Perm(k) {
			tile.Refs = append(tile.Refs, maskio.Ref{
				Cell: fmt.Sprintf("class%02d", i), Cols: 1, Rows: 1,
				Orient: orients[rng.Intn(len(orients))],
				// orientations can move a clip to negative coordinates;
				// the slot's far corner keeps every clip inside its slot
				Origin: geom.Pt(float64(slot%tileCols)*pitch+pitch/2, float64(slot/tileCols)*pitch+pitch/2),
			})
		}
		lib.Cells = append(lib.Cells, tile)
	}
	tileW, tileH := float64(tileCols)*pitch, float64(tileRows)*pitch
	top := &maskio.Cell{Name: "top"}
	for t := 0; t < 2; t++ {
		top.Refs = append(top.Refs, maskio.Ref{
			Cell: fmt.Sprintf("tile%d", t), Cols: cols, Rows: rows,
			Origin:  geom.Pt(0, float64(t*rows)*tileH),
			ColStep: geom.Pt(tileW, 0), RowStep: geom.Pt(0, tileH),
		})
	}
	lib.Cells = append(lib.Cells, top)
	var buf bytes.Buffer
	if err := maskio.WriteGDSLib(&buf, lib); err != nil {
		return nil, fmt.Errorf("write mask: %w", err)
	}
	f, err := startFleet(1, pipelineMethod, false)
	if err != nil {
		return nil, err
	}
	e := &maskPipelineEnv{cfg: cfg, gds: buf.Bytes(), fleet: f}
	read, err := maskio.ReadGDSLib(bytes.NewReader(e.gds))
	if err == nil {
		_, err = cluster.RunPipeline(context.Background(), f.client, read, cluster.PipelineConfig{Workers: nprocWorkers()})
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("warm the nodes: %w", err)
	}
	return e, nil
}

func (e *maskPipelineEnv) close() { e.fleet.close() }

// prepareReference canonicalizes every placement of the mask as read
// back from GDSII, independently of the pipeline, and fetches and
// verifies each distinct class's stored cluster answer.
func (e *maskPipelineEnv) prepareReference() error {
	lib, err := maskio.ReadGDSLib(bytes.NewReader(e.gds))
	if err != nil {
		return err
	}
	c := e.fleet.newClient(true)
	e.ref = make(map[shapecache.Key]classRef)
	err = lib.Walk(func(pl maskio.Placement) error {
		e.placements++
		can := shapecache.Canonicalize(pl.Polygon)
		key := can.KeyWith([]byte(pipelineMethod))
		r, ok := e.ref[key]
		if !ok {
			if r, err = fetchReference(c, can, pipelineMethod); err != nil {
				return err
			}
		}
		r.uses++
		e.ref[key] = r
		return nil
	})
	if err != nil {
		return err
	}
	for _, r := range e.ref {
		e.flashes += int64(r.flashes) * r.uses
		e.failPx += int64(r.failOn+r.failOff) * r.uses
	}
	return nil
}

// measure repeats read-and-pipeline runs for d. Each run reads the
// mask from its GDSII bytes and streams it through the cluster; every
// placement's class answer is checked against the local reference.
func (e *maskPipelineEnv) measure(d time.Duration, traced bool) (*observation, error) {
	obs := &observation{itemsAs: "placements_per_s", method: pipelineMethod, layers: make(map[string]float64)}
	if e.ref == nil {
		if err := e.prepareReference(); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		refs := make([]classRef, 0, len(e.ref))
		for _, r := range e.ref {
			refs = append(refs, r)
		}
		reportReferences(obs, refs)
	}
	before, err := e.fleet.counters(context.Background())
	if err != nil {
		return nil, err
	}
	var last *maskio.Library
	start := time.Now()
	for runs := 0; runs == 0 || (!e.cfg.tiny && time.Since(start) < d); runs++ {
		ctx := context.Background()
		var root *telemetry.Span
		if traced {
			ctx, root = telemetry.WithTrace(ctx, "bench.mask")
		}
		var bad []string
		check := func(pr *cluster.PlacementResult) error {
			ref, ok := e.ref[pr.Key]
			c := pr.Class
			flashes := c.ShotCount - len(c.LPairs)
			if e.cfg.inject == "class-flash" && pr.Seq == 0 {
				flashes++
			}
			switch {
			case !ok:
				bad = append(bad, fmt.Sprintf("placement %d: class key not among the mask's canonical keys", pr.Seq))
			case flashes != ref.flashes || c.FailOn != ref.failOn || c.FailOff != ref.failOff:
				bad = append(bad, fmt.Sprintf("placement %d: flashes/fail on/off %d/%d/%d, stored answer %d/%d/%d",
					pr.Seq, flashes, c.FailOn, c.FailOff, ref.flashes, ref.failOn, ref.failOff))
			}
			return nil
		}
		t0 := time.Now()
		_, rsp := telemetry.StartSpan(ctx, "maskio.read")
		lib, err := maskio.ReadGDSLib(bytes.NewReader(e.gds))
		rsp.End()
		if err != nil {
			return nil, fmt.Errorf("read mask: %w", err)
		}
		mr, err := cluster.RunPipeline(ctx, e.fleet.client, lib, cluster.PipelineConfig{Workers: nprocWorkers(), OnResult: check})
		obs.latencies = append(obs.latencies, time.Since(t0))
		root.End()
		if root != nil {
			obs.roots = append(obs.roots, capture(root))
		}
		last = lib
		obs.attempted++
		if err != nil {
			obs.fail("run %d: %v", runs, err)
			continue
		}
		obs.items += float64(mr.Placements)
		obs.flashes, obs.failPx = mr.Flashes, mr.FailOn+mr.FailOff
		switch {
		case len(bad) > 0:
			obs.fail("run %d: %d placements disagree with their class's stored answer, first: %s", runs, len(bad), bad[0])
		case mr.Placements != e.placements:
			obs.fail("run %d: %d placements, the mask has %d", runs, mr.Placements, e.placements)
		case mr.Classes != len(e.ref):
			obs.fail("run %d: %d classes, the mask has %d distinct keys", runs, mr.Classes, len(e.ref))
		case mr.Flashes != e.flashes || mr.FailOn+mr.FailOff != e.failPx:
			obs.fail("run %d: mask flashes/fail %d/%d, per-class sums %d/%d", runs, mr.Flashes, mr.FailOn+mr.FailOff, e.flashes, e.failPx)
		}
	}
	obs.elapsed = time.Since(start)
	after, err := e.fleet.counters(context.Background())
	if err != nil {
		return nil, err
	}
	layerDeltas(before, after, obs.layers)
	if traced && last != nil {
		e.splitPipeline(obs, last)
	}
	return obs, nil
}

// splitPipeline times the walk and the canonicalization the pipeline's
// producer runs without spans of their own, alone on the same library
// (median of three), and charges them to maskio and shapecache in the
// budget; cluster.pipeline_self_ms is what remains of each run's
// pipeline span after them and the class calls.
func (e *maskPipelineEnv) splitPipeline(obs *observation, lib *maskio.Library) {
	var walks, canons []float64
	for i := 0; i < 3; i++ {
		w, c := timeWalk(lib)
		walks, canons = append(walks, float64(w)), append(canons, float64(c))
	}
	walk, canon := time.Duration(median(walks)), time.Duration(median(canons))
	obs.moved = []move{{"cluster", "maskio", walk}, {"cluster", "shapecache", canon}}
	obs.layers["maskio.walk_ms"] = ms(walk)
	obs.layers["shapecache.canon_us"] = float64(canon) / float64(time.Microsecond) / float64(e.placements)
	var self []float64
	for _, root := range obs.roots {
		var pipe, classes time.Duration
		root.walk(func(s, _ *spanNode) {
			switch s.name {
			case "cluster.pipeline":
				pipe += s.dur
			case "cluster.class":
				classes += s.dur
			}
		})
		self = append(self, ms(max(pipe-walk-canon-classes, 0)))
	}
	obs.layers["cluster.pipeline_self_ms"] = median(self)
}

// timeWalk times a no-op walk of lib, then the extra time a walk that
// canonicalizes and keys every placement takes.
func timeWalk(lib *maskio.Library) (walk, canon time.Duration) {
	t0 := time.Now()
	_ = lib.Walk(func(maskio.Placement) error { return nil })
	walk = time.Since(t0)
	var sink byte
	t1 := time.Now()
	_ = lib.Walk(func(pl maskio.Placement) error {
		k := shapecache.Canonicalize(pl.Polygon).KeyWith([]byte(pipelineMethod))
		sink ^= k[0]
		return nil
	})
	_ = sink
	return walk, max(time.Since(t1)-walk, 0)
}
