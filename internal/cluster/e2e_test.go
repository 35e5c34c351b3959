package cluster

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maskfrac/internal/fracserve"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/telemetry"
)

// testNode is one in-process fracd member with request accounting and
// an injectable per-request delay, so tests can observe routing,
// back-pressure and hedging from the outside.
type testNode struct {
	id          string
	srv         *fracserve.Server
	ts          *httptest.Server
	fractures   atomic.Int64
	requests    atomic.Int64 // HTTP requests of any path
	metrics     atomic.Int64 // GET /metrics requests
	inflight    atomic.Int64
	maxInflight atomic.Int64
	delay       atomic.Int64 // ns, applied to /fracture before delegating
}

func startTestNode(t testing.TB, id string) *testNode {
	t.Helper()
	n := &testNode{id: id, srv: fracserve.New(fracserve.Config{Workers: 4, QueueDepth: 64})}
	inner := n.srv.Handler()
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.requests.Add(1)
		if r.URL.Path == "/metrics" {
			n.metrics.Add(1)
		}
		if r.Method == http.MethodPost && r.URL.Path == "/fracture" {
			n.fractures.Add(1)
			cur := n.inflight.Add(1)
			for {
				max := n.maxInflight.Load()
				if cur <= max || n.maxInflight.CompareAndSwap(max, cur) {
					break
				}
			}
			defer n.inflight.Add(-1)
			if d := n.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(n.ts.Close)
	return n
}

func startCluster(t testing.TB, size int, cfg Config) (*Client, []*testNode) {
	t.Helper()
	if cfg.Method == "" {
		cfg.Method = "proto-eda"
	}
	c := NewClient(cfg)
	nodes := make([]*testNode, size)
	for i := range nodes {
		id := string(rune('a' + i))
		nodes[i] = startTestNode(t, "node-"+id)
		c.AddNode(nodes[i].id, nodes[i].ts.URL)
	}
	return c, nodes
}

// e2eLib is a 3-level hierarchy with repeated congruence classes:
// leaf (L + rect) instantiated under rotation and arrays, plus a
// variety cell contributing ~30 distinct classes so routing spreads
// across all nodes.
func e2eLib() *maskio.Library {
	lshape := geom.Polygon{
		geom.Pt(0, 0), geom.Pt(90, 0), geom.Pt(90, 30),
		geom.Pt(30, 30), geom.Pt(30, 120), geom.Pt(0, 120),
	}
	rect := geom.Polygon{geom.Pt(0, 0), geom.Pt(70, 0), geom.Pt(70, 30), geom.Pt(0, 30)}
	leaf := &maskio.Cell{Name: "leaf", Boundaries: []geom.Polygon{lshape, rect}}

	variety := &maskio.Cell{Name: "variety"}
	for i := 0; i < 30; i++ {
		w := float64(44 + 4*i)
		variety.Boundaries = append(variety.Boundaries, geom.Polygon{
			geom.Pt(0, 0), geom.Pt(w, 0), geom.Pt(w, 24), geom.Pt(0, 24),
		}.Translate(geom.Pt(0, float64(40*i))))
	}

	pair := &maskio.Cell{Name: "pair", Refs: []maskio.Ref{
		{Cell: "leaf", Cols: 1, Rows: 1, Origin: geom.Pt(0, 0)},
		{Cell: "leaf", Cols: 1, Rows: 1, Orient: maskio.OrientRot90, Origin: geom.Pt(300, 0)},
	}}
	top := &maskio.Cell{Name: "top", Refs: []maskio.Ref{
		{Cell: "pair", Cols: 3, Rows: 2, ColStep: geom.Pt(600, 0), RowStep: geom.Pt(0, 400)},
		{Cell: "variety", Cols: 1, Rows: 1, Orient: maskio.OrientMirrorY, Origin: geom.Pt(2500, 0)},
		{Cell: "leaf", Cols: 1, Rows: 1, Orient: maskio.OrientTranspose, Origin: geom.Pt(0, 1500)},
	}}
	return &maskio.Library{Name: "e2e", Cells: []*maskio.Cell{leaf, variety, pair, top}}
}

// distinctClasses walks lib and counts congruence classes keyed with
// the cluster method, canonicalizing every placement on its own — an
// independent reference for the pipeline, exact on e2eLib's integer
// coordinates.
func distinctClasses(t *testing.T, lib *maskio.Library, method string) int {
	t.Helper()
	seen := map[shapecache.Key]struct{}{}
	if err := lib.Walk(func(pl maskio.Placement) error {
		seen[shapecache.Canonicalize(pl.Polygon).KeyWith([]byte(method))] = struct{}{}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return len(seen)
}

// TestClusterE2ESingleSolvePerClass is the headline invariant: across a
// 3-node cluster, the sum of per-node cache misses equals the number of
// distinct congruence classes — every class was solved exactly once
// cluster-wide, everything else was routing and cache.
func TestClusterE2ESingleSolvePerClass(t *testing.T) {
	// partition fracturing tiles the polygon exactly (no proximity
	// bias), so the shot geometry checks below can assert equality
	c, nodes := startCluster(t, 3, Config{WantShots: true, Method: "partition"})
	lib := e2eLib()
	ctx, root := telemetry.WithTrace(context.Background(), "test-mask")

	wantPlacements, err := lib.PlacementCount()
	if err != nil {
		t.Fatal(err)
	}
	wantClasses := distinctClasses(t, lib, "partition")

	lastSeq := int64(-1)
	mr, err := RunPipeline(ctx, c, lib, PipelineConfig{Workers: 8, OnResult: func(pr *PlacementResult) error {
		if pr.Seq <= lastSeq {
			t.Errorf("out-of-order emission: seq %d after %d", pr.Seq, lastSeq)
		}
		lastSeq = pr.Seq
		// shots mapped into the placement frame must exactly tile the
		// placement polygon: total area matches and every shot stays
		// inside the bounding box
		poly := placementPolygon(t, lib, pr)
		var area float64
		bb := poly.Bounds()
		for _, s := range pr.Shots {
			area += s.Area()
			if !bb.ContainsRect(s) {
				t.Errorf("seq %d: shot %+v outside bounds %+v", pr.Seq, s, bb)
			}
		}
		if math.Abs(area-poly.Area()) > 1e-6 {
			t.Errorf("seq %d: shot area %.3f != polygon area %.3f", pr.Seq, area, poly.Area())
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Placements != wantPlacements {
		t.Errorf("placements = %d, want %d", mr.Placements, wantPlacements)
	}
	if mr.Classes != wantClasses {
		t.Errorf("classes = %d, want %d", mr.Classes, wantClasses)
	}
	// the D4 search runs once per (Cell, Shape, Orient), never per
	// placement: at most 8 per dictionary boundary
	root.End()
	span := root.Find("cluster.pipeline")
	if span == nil {
		t.Fatal("no cluster.pipeline span")
	}
	canon, _ := attrValue(span, "canonicalized")
	boundaries, triples := 0, map[string]bool{}
	for _, cell := range lib.Cells {
		boundaries += len(cell.Boundaries)
	}
	if err := lib.Walk(func(pl maskio.Placement) error {
		triples[fmt.Sprintf("%s/%d/%d", pl.Cell, pl.Shape, pl.Orient)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n, ok := canon.(int); !ok || n != len(triples) || n > 8*boundaries {
		t.Errorf("canonicalized = %v, want %d distinct (Cell, Shape, Orient), at most 8 × %d boundaries", canon, len(triples), boundaries)
	}
	if mr.Shots <= 0 || mr.WriteTime <= 0 {
		t.Errorf("aggregates: shots=%d writetime=%v", mr.Shots, mr.WriteTime)
	}
	// partition applies no proximity compensation, so every placement
	// evaluates as CD-infeasible — which exercises the aggregation path
	if mr.Infeasible != mr.Placements {
		t.Errorf("infeasible = %d, want every placement (%d) under partition", mr.Infeasible, mr.Placements)
	}

	var misses, hits uint64
	for _, n := range nodes {
		st, err := c.NodeStats(ctx, n.id)
		if err != nil {
			t.Fatalf("stats %s: %v", n.id, err)
		}
		misses += st.Cache.Misses
		hits += st.Cache.Hits
	}
	if int(misses) != wantClasses {
		t.Errorf("cluster-wide cache misses = %d, want %d (one solve per class)", misses, wantClasses)
	}
	// the pipeline memo means repeated classes never reach the wire, so
	// warm-node hits stay zero on a cold cluster
	if hits != 0 {
		t.Errorf("unexpected node cache hits on a cold cluster: %d", hits)
	}
	// with ~30+ classes and 128 vnodes, all 3 nodes should own work
	for _, n := range nodes {
		if n.fractures.Load() == 0 {
			t.Errorf("node %s received no requests: routing is not spreading", n.id)
		}
	}
}

// TestClusterE2ENonDyadicOrigins pins the pipeline's float behaviour:
// at origins like 0.1·i a per-placement Canonicalize rounds translated
// copies of one boundary apart into several keys, but the pipeline
// canonicalizes each boundary once per orientation, so it reports one
// class per dictionary boundary up to D4.
func TestClusterE2ENonDyadicOrigins(t *testing.T) {
	c, _ := startCluster(t, 1, Config{Method: "partition"})
	lshape := geom.Polygon{
		geom.Pt(0, 0), geom.Pt(90.25, 0), geom.Pt(90.25, 30),
		geom.Pt(30, 30), geom.Pt(30, 120.5), geom.Pt(0, 120.5),
	}
	rect := geom.Polygon{geom.Pt(0, 0), geom.Pt(170, 0), geom.Pt(170, 30.75), geom.Pt(0, 30.75)}
	leaf := &maskio.Cell{Name: "leaf", Boundaries: []geom.Polygon{lshape, rect}}
	top := &maskio.Cell{Name: "top"}
	for i := 1; i <= 24; i++ {
		top.Refs = append(top.Refs, maskio.Ref{
			Cell: "leaf", Orient: maskio.Orient(i % 8), Cols: 1, Rows: 1,
			Origin: geom.Pt(0.1*float64(i), 0.1*float64(3*i%7)),
		})
	}
	top.Refs = append(top.Refs, maskio.Ref{
		Cell: "leaf", Orient: maskio.OrientRot90, Cols: 5, Rows: 3,
		Origin: geom.Pt(0.7, 0.2), ColStep: geom.Pt(0.1, 0.3), RowStep: geom.Pt(0.3, 0.1),
	})
	lib := &maskio.Library{Name: "non-dyadic", Cells: []*maskio.Cell{leaf, top}}
	if n := distinctClasses(t, lib, "partition"); n <= len(leaf.Boundaries) {
		t.Fatalf("per-placement canonicalization gave %d keys; the input no longer exercises the float caveat", n)
	}

	keyOf := map[int]shapecache.Key{}
	mr, err := RunPipeline(context.Background(), c, lib, PipelineConfig{OnResult: func(pr *PlacementResult) error {
		if k, ok := keyOf[pr.Shape]; ok && k != pr.Key {
			t.Errorf("placement %d: boundary %d split into a second class", pr.Seq, pr.Shape)
		}
		keyOf[pr.Shape] = pr.Key
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Classes != len(leaf.Boundaries) {
		t.Errorf("classes = %d, want one per dictionary boundary (%d)", mr.Classes, len(leaf.Boundaries))
	}
}

// placementPolygon recomputes the world-frame polygon of a placement
// from the library, independently of the pipeline's internals.
func placementPolygon(t *testing.T, lib *maskio.Library, pr *PlacementResult) geom.Polygon {
	t.Helper()
	var got geom.Polygon
	if err := lib.Walk(func(pl maskio.Placement) error {
		if pl.Seq == pr.Seq {
			got = pl.Polygon
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatalf("seq %d not found in library walk", pr.Seq)
	}
	return got
}

// TestClusterE2EClassUseCredit: after a pipeline run the cluster-wide
// class statistics count mask placements, not wire requests — the
// memo collapses repeated classes into one request, and the pipeline
// reports the collapsed multiplicities back to the owning nodes via
// POST /stats/classes.
func TestClusterE2EClassUseCredit(t *testing.T) {
	c, nodes := startCluster(t, 3, Config{})
	lib := e2eLib()
	ctx := context.Background()
	wantPlacements, err := lib.PlacementCount()
	if err != nil {
		t.Fatal(err)
	}
	wantClasses := distinctClasses(t, lib, "proto-eda")

	mr, err := RunPipeline(ctx, c, lib, PipelineConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if mr.ClassUsesCredited == 0 {
		t.Error("no class multiplicities credited despite repeated classes")
	}
	var placements int64
	classes := 0
	for _, n := range nodes {
		st, err := fracserve.NewClient(n.ts.URL).StatsTop(ctx, 0)
		if err != nil {
			t.Fatalf("stats %s: %v", n.id, err)
		}
		classes += len(st.TopClasses)
		for _, cl := range st.TopClasses {
			placements += cl.Placements
		}
	}
	if classes != wantClasses {
		t.Errorf("cluster-wide tracked classes = %d, want %d", classes, wantClasses)
	}
	if placements != wantPlacements {
		t.Errorf("cluster-wide class placements = %d, want %d (wire requests were %d)",
			placements, wantPlacements, mr.ClusterRequests)
	}
	if mr.Flashes != mr.Shots {
		t.Errorf("rectangle-only method reported flashes %d != shots %d", mr.Flashes, mr.Shots)
	}
}

// TestClusterE2ENodeFailure kills one node mid-run: retries and
// failover must complete the mask with zero lost placements.
func TestClusterE2ENodeFailure(t *testing.T) {
	c, nodes := startCluster(t, 3, Config{
		Retries:      1,
		RetryBackoff: 10 * time.Millisecond,
		Fallbacks:    2,
	})
	lib := e2eLib()
	wantPlacements, err := lib.PlacementCount()
	if err != nil {
		t.Fatal(err)
	}

	var once sync.Once
	mr, err := RunPipeline(context.Background(), c, lib, PipelineConfig{
		Workers: 4,
		// small window so the walk is still in progress when the node
		// dies
		Window: 4,
		OnResult: func(pr *PlacementResult) error {
			if pr.Seq >= 5 {
				once.Do(func() {
					nodes[2].ts.CloseClientConnections()
					nodes[2].ts.Close()
				})
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("pipeline failed despite failover: %v", err)
	}
	if mr.Placements != wantPlacements {
		t.Errorf("lost placements: got %d, want %d", mr.Placements, wantPlacements)
	}
	// the dead node owned some classes (3-way split of 30+), so the
	// router must have recorded reroutes unless the run finished before
	// the kill — the seq>=5 trigger with a 4-slot window prevents that
	failovers := c.failovers.Value() + c.retries.Value()
	if failovers == 0 {
		t.Error("node died mid-run but no retries/failovers were recorded")
	}
}

// TestClusterSingleflight: concurrent solves of one key collapse into
// one wire request.
func TestClusterSingleflight(t *testing.T) {
	c, nodes := startCluster(t, 2, Config{})
	for _, n := range nodes {
		n.delay.Store(int64(100 * time.Millisecond))
	}
	poly := geom.Polygon{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(80, 50), geom.Pt(0, 50)}
	can := shapecache.Canonicalize(poly)
	key := can.KeyWith([]byte("proto-eda"))

	const callers = 8
	var wg sync.WaitGroup
	results := make([]*ClassResult, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.SolveClass(context.Background(), key, can.Poly)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	var wire int64
	for _, n := range nodes {
		wire += n.fractures.Load()
	}
	if wire != 1 {
		t.Errorf("8 concurrent solves produced %d wire requests, want 1", wire)
	}
	if c.dedups.Value() != callers-1 {
		t.Errorf("singleflight dedups = %v, want %d", c.dedups.Value(), callers-1)
	}
	for i, r := range results {
		if r == nil || r.ShotCount != results[0].ShotCount {
			t.Errorf("caller %d result diverged: %+v", i, r)
		}
	}
}

// TestClusterBackpressure: per-node in-flight stays within MaxInflight
// even when far more classes target one node.
func TestClusterBackpressure(t *testing.T) {
	c, nodes := startCluster(t, 1, Config{MaxInflight: 2})
	nodes[0].delay.Store(int64(30 * time.Millisecond))

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		w := float64(50 + 2*i)
		poly := geom.Polygon{geom.Pt(0, 0), geom.Pt(w, 0), geom.Pt(w, 31), geom.Pt(0, 31)}
		can := shapecache.Canonicalize(poly)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.SolveClass(context.Background(), can.KeyWith([]byte("proto-eda")), can.Poly); err != nil {
				t.Errorf("solve: %v", err)
			}
		}()
	}
	wg.Wait()
	if max := nodes[0].maxInflight.Load(); max > 2 {
		t.Errorf("observed %d concurrent requests, back-pressure cap is 2", max)
	}
	if nodes[0].fractures.Load() != 12 {
		t.Errorf("wire requests = %d, want 12 distinct classes", nodes[0].fractures.Load())
	}
}

// TestClusterHedging: a slow owner is raced by a hedge to the next ring
// node; the fast fallback's answer wins.
func TestClusterHedging(t *testing.T) {
	c, nodes := startCluster(t, 2, Config{
		HedgeDelay: 30 * time.Millisecond,
		Fallbacks:  1,
	})
	poly := geom.Polygon{geom.Pt(0, 0), geom.Pt(64, 0), geom.Pt(64, 48), geom.Pt(0, 48)}
	can := shapecache.Canonicalize(poly)
	key := can.KeyWith([]byte("proto-eda"))

	cands := c.ring.LookupN(key, 2)
	byID := map[string]*testNode{}
	for _, n := range nodes {
		byID[n.id] = n
	}
	byID[cands[0]].delay.Store(int64(2 * time.Second))

	start := time.Now()
	res, err := c.SolveClass(context.Background(), key, can.Poly)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("hedge did not rescue the tail: took %v", el)
	}
	if res.Node != cands[1] {
		t.Errorf("winning node = %s, want hedge target %s", res.Node, cands[1])
	}
	if c.hedges.Value() != 1 {
		t.Errorf("hedge counter = %v, want 1", c.hedges.Value())
	}
}

// TestClusterNoNodes: an empty ring fails fast, not with a hang.
func TestClusterNoNodes(t *testing.T) {
	c := NewClient(Config{Method: "proto-eda"})
	poly := geom.Polygon{geom.Pt(0, 0), geom.Pt(60, 0), geom.Pt(60, 60), geom.Pt(0, 60)}
	can := shapecache.Canonicalize(poly)
	_, err := c.SolveClass(context.Background(), can.KeyWith(nil), can.Poly)
	if err != ErrNoNodes {
		t.Fatalf("err = %v, want ErrNoNodes", err)
	}
}
