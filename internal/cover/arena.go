// Per-Eval buffer arenas: the dose grid, pixel bitmaps, edge
// tables and accumulation scratch of an evaluator are the dominant
// allocations of a cache-miss solve, and the refinement loops of every
// heuristic construct evaluators repeatedly (polish candidates,
// removal trials, merge passes). An Arena recycles those buffers
// within a Problem, and a process-wide sync.Pool recycles whole arenas
// across solves, so the steady state allocates nothing.
package cover

import (
	"sync"
	"sync/atomic"
)

// Process-wide arena reuse counters, exported to /metrics by the
// fracturing service (fracd_eval_arena_*).
var (
	arenaHitsTotal        atomic.Int64
	arenaMissesTotal      atomic.Int64
	arenaBytesReusedTotal atomic.Int64
)

// ArenaStats is a snapshot of the process-wide arena reuse counters:
// how many buffer acquisitions were served from a free list (Hits) vs
// freshly allocated (Misses), and how many bytes the hits reused.
type ArenaStats struct {
	Hits        int64
	Misses      int64
	BytesReused int64
}

// ArenaCounters returns the current process-wide arena reuse totals.
func ArenaCounters() ArenaStats {
	return ArenaStats{
		Hits:        arenaHitsTotal.Load(),
		Misses:      arenaMissesTotal.Load(),
		BytesReused: arenaBytesReusedTotal.Load(),
	}
}

// arenaListCap bounds each free list; an evaluator holds one dose
// field, three bitmaps and two scratch slices, so a handful of retained
// buffers covers the construct-close-construct churn of the
// refinement loops without hoarding.
const arenaListCap = 8

// An Arena recycles the large buffers behind cover evaluators. Buffers
// flow out through the get methods (NewEval, Problem.Evaluate) and
// back in through Eval.Close; the free lists are mutex-guarded so a
// Problem's arena tolerates concurrent evaluators, though region
// solves are expected to use one arena per subproblem (they share
// nothing but the read-only model tables).
//
// The zero value is ready to use. Arenas themselves are pooled
// process-wide: NewArena draws from a sync.Pool and Problem.Recycle
// returns to it, which is what carries buffer reuse across cache-miss
// solves.
type Arena struct {
	mu    sync.Mutex
	f64   [][]float64
	f32   [][]float32
	bits  [][]bool
	words [][]uint64
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// NewArena returns an arena from the process-wide pool.
func NewArena() *Arena {
	return arenaPool.Get().(*Arena)
}

// recycle returns the arena (with whatever buffers it holds) to the
// process-wide pool. The caller must not use it afterwards.
func (a *Arena) recycle() {
	arenaPool.Put(a)
}

// getF64 returns a zeroed []float64 of length n, reusing a free-listed
// buffer when one is large enough.
func (a *Arena) getF64(n int) []float64 { return get(a, &a.f64, n, 8) }

// getF32 returns a zeroed []float32 of length n.
func (a *Arena) getF32(n int) []float32 { return get(a, &a.f32, n, 4) }

// getBits returns a zeroed []bool of length n.
func (a *Arena) getBits(n int) []bool { return get(a, &a.bits, n, 1) }

// getWords returns a zeroed []uint64 of length n.
func (a *Arena) getWords(n int) []uint64 { return get(a, &a.words, n, 8) }

// putF64 returns a buffer to the free list (nil and zero-capacity
// slices are dropped, as are buffers beyond the list cap).
func (a *Arena) putF64(s []float64) { put(a, &a.f64, s) }

// putF32 returns a buffer to the free list.
func (a *Arena) putF32(s []float32) { put(a, &a.f32, s) }

// putBits returns a buffer to the free list.
func (a *Arena) putBits(s []bool) { put(a, &a.bits, s) }

// putWords returns a buffer to the free list.
func (a *Arena) putWords(s []uint64) { put(a, &a.words, s) }

// get pops a free-listed buffer of capacity at least n from *list (or
// allocates one), zeroed and resliced to n; size is the element size
// in bytes, for the reuse counter.
func get[T any](a *Arena, list *[][]T, n, size int) []T {
	a.mu.Lock()
	l := *list
	for i := len(l) - 1; i >= 0; i-- {
		if s := l[i]; cap(s) >= n {
			l[i] = l[len(l)-1]
			*list = l[:len(l)-1]
			a.mu.Unlock()
			arenaHitsTotal.Add(1)
			arenaBytesReusedTotal.Add(int64(size) * int64(n))
			s = s[:n]
			clear(s)
			return s
		}
	}
	a.mu.Unlock()
	arenaMissesTotal.Add(1)
	return make([]T, n)
}

// put pushes s onto *list unless it has no capacity or the list is
// full.
func put[T any](a *Arena, list *[][]T, s []T) {
	if cap(s) == 0 {
		return
	}
	a.mu.Lock()
	if len(*list) < arenaListCap {
		*list = append(*list, s[:0])
	}
	a.mu.Unlock()
}
