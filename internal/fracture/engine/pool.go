package engine

import (
	"context"
	"sync"
)

// Pool bounds the number of extra solver goroutines a process may run
// beyond the goroutines that already carry work. Batch-level solving
// (one goroutine per shape) and region-level solving (one goroutine per
// independent region) draw tokens from the same pool, so nesting the
// two never oversubscribes the configured worker budget.
//
// Acquisition is strictly non-blocking: a caller that gets no token
// runs the work inline on its own goroutine. A token holder therefore
// never waits on another token, which makes the pool deadlock-free
// under arbitrary nesting. A nil *Pool hands out nothing.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool of extra goroutine tokens; extra <= 0 yields a
// pool that always refuses, serializing all work onto its callers.
func NewPool(extra int) *Pool {
	if extra < 0 {
		extra = 0
	}
	return &Pool{sem: make(chan struct{}, extra)}
}

// TryAcquire takes a token without blocking and reports whether it got
// one. Every successful TryAcquire must be paired with Release.
func (p *Pool) TryAcquire() bool {
	if p == nil || cap(p.sem) == 0 {
		return false
	}
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a token taken with TryAcquire.
func (p *Pool) Release() {
	if p == nil || cap(p.sem) == 0 {
		return
	}
	<-p.sem
}

// Extra returns the pool's token capacity.
func (p *Pool) Extra() int {
	if p == nil {
		return 0
	}
	return cap(p.sem)
}

// Fan runs work on the calling goroutine and on up to helpers extra
// goroutines, one per token it can take from p without blocking, and
// returns when every copy has returned; work's argument reports whether
// it runs on a helper. The copies share their work through whatever
// work closes over (a queue, a cursor). With no token free — or a nil
// pool — work runs once, inline.
//
// A panic in any copy is contained: Fan calls abort (when non-nil) so
// the other copies can stop taking work, waits for them all, then
// re-panics on the calling goroutine with the first panic's value. A
// parallel run therefore fails the way the sequential one would — on
// the caller's goroutine, where its recovery (if any) sits — instead
// of killing the process from a helper.
func (p *Pool) Fan(helpers int, work func(helper bool), abort func()) {
	var (
		mu       sync.Mutex
		panicked bool
		first    any
		wg       sync.WaitGroup
	)
	run := func(helper bool) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if !panicked {
					panicked, first = true, r
				}
				mu.Unlock()
				if abort != nil {
					abort()
				}
			}
		}()
		work(helper)
	}
	for extra := 0; extra < helpers && p.TryAcquire(); extra++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.Release()
			run(true)
		}()
	}
	run(false)
	wg.Wait()
	if panicked {
		panic(first)
	}
}

type poolKey struct{}

// WithPool attaches a pool to the context. Engine solves under this
// context claim their extra parallelism from it instead of creating
// their own, so an enclosing batch and its nested region solves share
// one bounded budget.
func WithPool(ctx context.Context, p *Pool) context.Context {
	return context.WithValue(ctx, poolKey{}, p)
}

// PoolFrom returns the pool attached to ctx, or nil.
func PoolFrom(ctx context.Context) *Pool {
	p, _ := ctx.Value(poolKey{}).(*Pool)
	return p
}
