package engine_test

import (
	"context"
	"sync/atomic"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/geom"
)

// panicRegionX is the x coordinate at and beyond which the
// "test-panic-region" method panics on a region.
const panicRegionX = 250

// poolSeen records the pool the "test-pool-probe" method found on its
// context.
var poolSeen atomic.Pointer[engine.Pool]

func init() {
	engine.Register("test-panic-region", func(_ context.Context, p *cover.Problem, _ engine.Options) (*engine.Solution, error) {
		b := p.TargetBounds()
		if b.X0 >= panicRegionX {
			panic("test-panic-region: poison region")
		}
		return &engine.Solution{Shots: []geom.Rect{b}}, nil
	})
	engine.Register("test-pool-probe", func(ctx context.Context, p *cover.Problem, _ engine.Options) (*engine.Solution, error) {
		poolSeen.Store(engine.PoolFrom(ctx))
		return &engine.Solution{Shots: []geom.Rect{p.TargetBounds()}}, nil
	})
}

// drainTokens takes every token it can from pool and returns them,
// reporting how many it got.
func drainTokens(pool *engine.Pool) int {
	n := 0
	for pool.TryAcquire() {
		n++
	}
	for i := 0; i < n; i++ {
		pool.Release()
	}
	return n
}

// TestFanRepanicsOnCaller: a panic on a helper goroutine stops the
// other copies through abort, waits for them, and surfaces on the
// calling goroutine with its own value; every token comes back.
func TestFanRepanicsOnCaller(t *testing.T) {
	pool := engine.NewPool(3)
	aborted := make(chan struct{})
	var once atomic.Bool
	var callerRan atomic.Bool
	got := func() (r any) {
		defer func() { r = recover() }()
		pool.Fan(3, func(helper bool) {
			if helper {
				panic("helper boom")
			}
			callerRan.Store(true)
			<-aborted // the caller's copy runs until the helper's panic aborts it
		}, func() {
			if once.CompareAndSwap(false, true) {
				close(aborted)
			}
		})
		return nil
	}()
	if got != "helper boom" {
		t.Fatalf("Fan panicked with %v, want the helper's value", got)
	}
	if !callerRan.Load() {
		t.Error("the caller's copy never ran")
	}
	if n := drainTokens(pool); n != 3 {
		t.Errorf("%d of 3 tokens free after the panic", n)
	}
}

// TestFanNoTokensRunsInline: with no token free, Fan runs work once on
// the caller, and a panic there propagates unchanged.
func TestFanNoTokensRunsInline(t *testing.T) {
	runs := 0
	engine.NewPool(0).Fan(4, func(helper bool) {
		if helper {
			t.Error("a helper ran on an empty pool")
		}
		runs++
	}, nil)
	if runs != 1 {
		t.Fatalf("work ran %d times, want 1", runs)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		(*engine.Pool)(nil).Fan(2, func(bool) { panic("inline boom") }, nil)
		return nil
	}()
	if got != "inline boom" {
		t.Fatalf("inline panic surfaced as %v", got)
	}
}

// TestSolveRegionPanicSurfacesOnCaller: when a region solver panics on
// a helper goroutine of a multi-region solve, Solve panics on the
// calling goroutine — as the sequential solve would — instead of the
// process dying, and returns every pool token.
func TestSolveRegionPanicSurfacesOnCaller(t *testing.T) {
	p := multiProblem(t, square(0, 0, 40), square(100, 0, 40), square(200, 0, 40), square(300, 0, 40))
	if n := len(engine.Plan(p)); n != 4 {
		t.Fatalf("%d regions, want 4", n)
	}
	for _, tokens := range []int{0, 3} {
		pool := engine.NewPool(tokens)
		ctx := engine.WithPool(context.Background(), pool)
		got := func() (r any) {
			defer func() { r = recover() }()
			_, _ = engine.Solve(ctx, p, engine.Config{Method: "test-panic-region"})
			return nil
		}()
		if got != "test-panic-region: poison region" {
			t.Fatalf("%d tokens: Solve panicked with %v", tokens, got)
		}
		if n := drainTokens(pool); n != tokens {
			t.Errorf("%d tokens: %d free after the panic", tokens, n)
		}
	}
}

// TestSolveAttachesPool: the solver sees a pool on its context on the
// single-region path too — Workers−1 tokens when Solve makes it, the
// caller's own when the context carries one.
func TestSolveAttachesPool(t *testing.T) {
	single := multiProblem(t, square(0, 0, 40))
	if _, err := engine.Solve(context.Background(), single, engine.Config{Method: "test-pool-probe", Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if pool := poolSeen.Load(); pool == nil || pool.Extra() != 2 {
		t.Fatalf("single region with Workers 3: solver saw pool %v, want 2 tokens", pool)
	}
	own := engine.NewPool(5)
	multi := multiProblem(t, square(0, 0, 40), square(200, 0, 40))
	if _, err := engine.Solve(engine.WithPool(context.Background(), own), multi, engine.Config{Method: "test-pool-probe", Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if poolSeen.Load() != own {
		t.Fatal("multi-region solve under a caller's pool: the solver saw a different pool")
	}
}
