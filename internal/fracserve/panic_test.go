package fracserve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/geom"
)

// poisonSide is the side length at and beyond which the
// "test-panic-shape" method panics.
const poisonSide = 100

// Pool observations of the "test-pool-hog" method.
var (
	hogPools sync.Map     // *engine.Pool → struct{}: every pool a hog saw
	hogHeld  atomic.Int64 // tokens the hogs hold right now
	hogMax   atomic.Int64 // most tokens the hogs held at once
)

func init() {
	engine.Register("test-panic-shape", func(_ context.Context, p *cover.Problem, _ engine.Options) (*engine.Solution, error) {
		b := p.TargetBounds()
		if b.W() >= poisonSide {
			panic("test-panic-shape: poison shape")
		}
		return &engine.Solution{Shots: []geom.Rect{b}}, nil
	})
	// test-pool-hog takes every token its context's pool will give,
	// holds them a moment and records the pool and the peak hold
	engine.Register("test-pool-hog", func(ctx context.Context, p *cover.Problem, _ engine.Options) (*engine.Solution, error) {
		pool := engine.PoolFrom(ctx)
		hogPools.Store(pool, struct{}{})
		got := 0
		for pool.TryAcquire() {
			got++
			held := hogHeld.Add(1)
			for m := hogMax.Load(); held > m && !hogMax.CompareAndSwap(m, held); m = hogMax.Load() {
			}
		}
		time.Sleep(20 * time.Millisecond)
		for ; got > 0; got-- {
			hogHeld.Add(-1)
			pool.Release()
		}
		return &engine.Solution{Shots: []geom.Rect{p.TargetBounds()}}, nil
	})
}

// TestE2EShapePanicContained: a solver panic on one shape of a batch
// becomes that shape's error item — its sibling is solved, the daemon
// stays healthy and counts the panic — and a repeat of the poison shape
// fails again at once instead of waiting on the panicked solve's cache
// flight. A /solve request with the poison shape gets a 422.
func TestE2EShapePanicContained(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	poison := testShape(150)
	resp, err := c.FractureBatch(ctx, []geom.Polygon{testShape(60), poison}, "test-panic-shape")
	if err != nil {
		t.Fatalf("batch with a poison shape: %v", err)
	}
	if it := resp.Results[0]; it.Error != "" || it.ShotCount != 1 {
		t.Errorf("sibling item: %+v", it)
	}
	if it := resp.Results[1]; !strings.Contains(it.Error, "panicked") {
		t.Errorf("poison item error %q, want a solver panic", it.Error)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("/healthz after the panic: %v", err)
	}
	if got := metricValue(t, scrape(t, ts.URL+"/metrics"), "fracd_shape_panics_total"); got != "1" {
		t.Errorf("fracd_shape_panics_total = %s, want 1", got)
	}

	rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, err := c.Fracture(rctx, poison.Translate(geom.Pt(7, 3)), "test-panic-shape"); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("repeat of the poison shape: error %v, want a solver panic", err)
	}

	_, err = c.SolveShapes(ctx, []geom.Polygon{poison}, "test-panic-shape")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("/solve with the poison shape: %v, want a 422", err)
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("/healthz after the panics: %v", err)
	}
	if got := metricValue(t, scrape(t, ts.URL+"/metrics"), "fracd_shape_panics_total"); got != "3" {
		t.Errorf("fracd_shape_panics_total = %s, want 3", got)
	}
}

// TestE2ESharedSolverPool: every shape of concurrent requests solves
// under the server's one pool, and the solves together never hold more
// than Workers−1 of its tokens.
func TestE2ESharedSolverPool(t *testing.T) {
	const workers = 3
	hogPools.Range(func(k, _ any) bool { hogPools.Delete(k); return true })
	hogMax.Store(0)
	s := New(Config{Workers: workers, QueueDepth: 64, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			shapes := make([]geom.Polygon, 3)
			for i := range shapes {
				shapes[i] = testShape(float64(40 + 3*r + i))
			}
			resp, err := c.FractureBatch(context.Background(), shapes, "test-pool-hog")
			if err != nil {
				t.Errorf("request %d: %v", r, err)
				return
			}
			for _, it := range resp.Results {
				if it.Error != "" {
					t.Errorf("request %d item %d: %s", r, it.Index, it.Error)
				}
			}
		}(r)
	}
	wg.Wait()

	pools := 0
	hogPools.Range(func(k, _ any) bool {
		pools++
		if k.(*engine.Pool) != s.pool {
			t.Errorf("a solve ran under pool %p, not the server's %p", k, s.pool)
		}
		return true
	})
	if pools != 1 {
		t.Errorf("solves saw %d distinct pools, want the server's one", pools)
	}
	if got := hogMax.Load(); got > workers-1 {
		t.Errorf("solves held %d tokens at once, more than Workers−1 = %d", got, workers-1)
	} else if got == 0 {
		t.Error("no solve ever got a token: the pool was never shared out")
	}
}
