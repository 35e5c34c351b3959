package engine

import (
	"sort"
	"sync/atomic"

	"maskfrac/internal/cover"
)

// engineStealsTotal counts regions executed by pool-token helper
// goroutines rather than the calling goroutine, process-wide; exported
// to /metrics by the fracturing service as fracd_engine_steals_total.
var engineStealsTotal atomic.Int64

// StealCount returns the process-wide total of stolen region solves.
func StealCount() int64 { return engineStealsTotal.Load() }

// regionCost estimates a region's solve cost as the pixel area of its
// bounding box inflated by the interaction radius — the size of the
// dose grid its subproblem scans, which dominates solve time.
func regionCost(p *cover.Problem, r Region) float64 {
	b := r.Bounds.Inset(-p.InteractionRadius())
	return (b.W() / p.Params.Pitch) * (b.H() / p.Params.Pitch)
}

// regionQueue is the shared work queue of one engine run: region
// indices sorted by descending estimated cost, consumed through an
// atomic cursor. Popping hands out the largest remaining region
// (longest-processing-time-first), so a giant region starts
// immediately while helpers drain the rest — one big region no longer
// serializes the tail of the batch. The queue only orders execution;
// results are stored by region index, so the stitch order (and the
// stitched shot list) is identical for every worker count.
type regionQueue struct {
	order []int
	next  atomic.Int64
}

// newRegionQueue builds the size-sorted queue for the run. Ties break
// on the smaller region index, keeping the schedule deterministic.
func newRegionQueue(p *cover.Problem, regions []Region) *regionQueue {
	costs := make([]float64, len(regions))
	for i, r := range regions {
		costs[i] = regionCost(p, r)
	}
	order := make([]int, len(regions))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := costs[order[a]], costs[order[b]]
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	return &regionQueue{order: order}
}

// close drains the queue: later pops report false. Used to stop the
// other workers after a region solver panics.
func (q *regionQueue) close() {
	q.next.Store(int64(len(q.order)))
}

// pop claims the largest remaining region, reporting false when the
// queue is drained. Safe for concurrent use.
func (q *regionQueue) pop() (int, bool) {
	n := q.next.Add(1) - 1
	if int(n) >= len(q.order) {
		return 0, false
	}
	return q.order[n], true
}
