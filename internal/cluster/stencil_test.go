package cluster

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/shapegen"
	"maskfrac/internal/stencil"
	"maskfrac/internal/writecost"
)

// planTestModel prices the small demo mask: zero stencil load overhead
// (the mask writes in milliseconds) and a 4-slot stencil.
func planTestModel() writecost.Model {
	m := writecost.Default()
	m.Overhead = 0
	m.CPLoadOverhead = 0
	m.CPSlots = 4
	return m
}

// TestStencilPlanE2E exercises the whole mining-to-plan path across a
// sharded cluster: every placement of the demo full-mask library is
// solved through the hash ring (one request per placement, so each
// shard's cache counts real placement frequencies), the client merges
// the per-node class tables, and the planner produces a stencil that
// beats the no-CP baseline within its slot budget.
func TestStencilPlanE2E(t *testing.T) {
	c, nodes := startCluster(t, 3, Config{})
	ctx := context.Background()

	lib := shapegen.DemoLibrary(2, 2)
	placements := 0
	keys := shapecache.NewPlacementKeys(lib, []byte("proto-eda"))
	if err := lib.Walk(func(pl maskio.Placement) error {
		can, key := keys.Of(pl)
		_, err := c.SolveClass(ctx, key, can.Poly)
		placements++
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if placements != 40 {
		t.Fatalf("walked %d placements, want 40", placements)
	}

	classes, err := c.TopClasses(ctx, 0)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	if len(classes) != 10 {
		t.Fatalf("mined %d classes, want 10", len(classes))
	}
	var total int64
	for _, cl := range classes {
		total += cl.Placements
		if cl.Shots <= 0 || cl.W <= 0 || cl.H <= 0 {
			t.Errorf("class %s missing solution stats: %+v", cl.Key[:8], cl)
		}
	}
	if total != 40 {
		t.Errorf("Σ placements across shards = %d, want 40", total)
	}
	// the shards split the classes: more than one node served traffic
	served := 0
	for _, n := range nodes {
		if n.fractures.Load() > 0 {
			served++
		}
	}
	if served < 2 {
		t.Errorf("only %d nodes served traffic", served)
	}

	m := planTestModel()
	plan := stencil.PlanCP(ctx, classes, m)
	if n := len(plan.Characters); n == 0 || n > m.CPSlots {
		t.Fatalf("characters = %d, want 1..%d", n, m.CPSlots)
	}
	r := plan.Report
	if r.WithCPWriteMS >= r.BaselineWriteMS {
		t.Errorf("CP write %v ms not below baseline %v ms", r.WithCPWriteMS, r.BaselineWriteMS)
	}
	sum := 0.0
	for _, ch := range plan.Characters {
		sum += ch.SavedMS
	}
	if sum != r.ClassSavedMS {
		t.Errorf("Σ per-class saved %v != reported total %v", sum, r.ClassSavedMS)
	}

	// determinism: re-mining and re-planning the same cluster state must
	// reproduce the plan byte for byte
	classes2, err := c.TopClasses(ctx, 0)
	if err != nil {
		t.Fatalf("re-mine: %v", err)
	}
	b1, _ := json.Marshal(plan)
	b2, _ := json.Marshal(stencil.PlanCP(ctx, classes2, m))
	if string(b1) != string(b2) {
		t.Errorf("replan diverged:\n%s\nvs\n%s", b1, b2)
	}
}

// TestStencilMineNodeDown: mining must fail loudly when a member is
// unreachable — a partial class table would underprice the plan.
func TestStencilMineNodeDown(t *testing.T) {
	c, nodes := startCluster(t, 2, Config{
		Retries:        0,
		RequestTimeout: 2 * time.Second,
	})
	nodes[1].ts.Close()
	if _, err := c.TopClasses(context.Background(), 0); err == nil {
		t.Fatal("mining with a dead node succeeded")
	}
}
