// L-shot matching pass (paper follow-up; Yu/Gao/Pan, "L-Shape Based
// Layout Fracturing for E-Beam Lithography", arXiv:1402.2420): after
// refinement, compatible rectangle pairs merge into single L-shaped
// exposures, each pair pricing as one flash.
//
// The pass builds an L-compatibility graph over the refined shots
// (UnionIsLShot, with a small snap tolerance so near-misses left by
// pitch-quantized edge adjustment still qualify), two-colors each
// connected component to obtain a bipartition, and runs Hopcroft–Karp
// maximum matching — the matching's cardinality is exactly the number
// of flashes saved. Matched pairs are applied to a pairing-aware
// evaluator, a bounded edge-adjustment pass repairs any dose
// perturbation from snapping and overlap sharing, pairs that still
// hurt are greedily split, and a never-worse guard falls back to the
// rectangle-only solution if the CD-violation count cannot be held.
package mbf

import (
	"context"
	"fmt"
	"math"
	"sort"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/fracture/partition"
	"maskfrac/internal/geom"
	"maskfrac/internal/graphx"
	"maskfrac/internal/telemetry"
)

// lRepairIters bounds the pairing-aware edge-adjustment repair loop.
const lRepairIters = 40

// lCand is one L-compatible shot pair: indices into the shot list plus
// the (possibly snapped) arm coordinates that make the union an L.
type lCand struct {
	i, j   int
	si, sj geom.Rect
}

// lStats summarizes the pass for StageInfo.
type lStats struct {
	candidates int // L-compatible pairs found
	droppedOdd int // candidate edges dropped by odd-cycle 2-coloring
	matched    int // pairs selected by maximum matching
	pairs      int // pairs surviving repair (== flashes saved)
}

// lshotPass merges compatible rectangle pairs of a refined solution
// into L-shots. It returns the (possibly edge-adjusted) shot list, the
// kept pairs as {i, j} index pairs, and the pass statistics. The
// returned configuration never has more CD violations than the input:
// if repair cannot hold the violation count, the input is returned
// unchanged with no pairs.
func lshotPass(ctx context.Context, p *cover.Problem, shots []geom.Rect, opt Options) ([]geom.Rect, [][2]int, lStats) {
	_, span := telemetry.StartSpan(ctx, "mbf.lshots")
	defer span.End()
	var ls lStats
	cands := lCandidates(p, shots)
	ls.candidates = len(cands)
	span.Set("candidates", len(cands))
	if len(cands) == 0 {
		return shots, nil, ls
	}
	matched, dropped := matchLPairs(cands, len(shots))
	ls.droppedOdd = dropped
	ls.matched = len(matched)
	span.Set("matched", len(matched))
	if len(matched) == 0 {
		return shots, nil, ls
	}

	e := cover.NewEval(p, shots)
	defer e.Close()
	baseFail := e.Stats().Fail()
	for _, c := range matched {
		e.SetShot(c.i, c.si)
		e.SetShot(c.j, c.sj)
		e.Pair(c.i, c.j)
	}
	// repair: the paired arms share one dose now (the overlap term is
	// gone) and snapping may have nudged edges; bounded greedy edge
	// adjustment — pairing-aware via DeltaCost/ApplyDelta and the
	// legalMove L-preservation filter — re-balances the dose budget.
	// When greedy stalls at a flush seam, loosenPairs advances the
	// dose-neutral inner edges to unlock the partner edge and greedy
	// retries.
	loosened := false
	for iter := 0; iter < lRepairIters; iter++ {
		if e.Stats().Fail() <= baseFail {
			break
		}
		if greedyEdgeAdjust(e, opt) {
			loosened = false
			continue
		}
		// one loosen attempt per greedy stall: if greedy stalls again
		// right after loosening, more slack cannot help
		if !loosened && loosenPairs(e) {
			loosened = true
			continue
		}
		// cost-greedy is stuck above the violation floor — typically one
		// marginal pixel at a pairing seam; hunt moves by fail count
		if failCountRepair(e, opt, baseFail) {
			loosened = false
			continue
		}
		break
	}
	// split the pairs that still hurt, most-harmful first: unpairing
	// restores the overlap dose, so the pair whose split reduces cost
	// the most is the one whose shared dose starves its neighborhood
	for e.Stats().Fail() > baseFail {
		bestI, bestDelta := -1, math.Inf(1)
		for _, pr := range e.Pairs() {
			if d := e.UnpairDelta(pr[0]); d < bestDelta {
				bestI, bestDelta = pr[0], d
			}
		}
		if bestI < 0 {
			break
		}
		e.Unpair(bestI)
		for iter := 0; iter < 4 && e.Stats().Fail() > baseFail; iter++ {
			if !greedyEdgeAdjust(e, opt) {
				break
			}
		}
	}
	if e.Stats().Fail() > baseFail {
		// never-worse guard: equal CD violations is the comparison rule
		span.Set("fallback", true)
		return shots, nil, ls
	}
	ls.pairs = e.PairCount()
	span.Set("pairs", ls.pairs)
	return e.SnapshotShots(), e.Pairs(), ls
}

// loosenPairs gives every flush L seam one pitch of slack: each arm
// edge whose one-pitch extension lies entirely inside the partner is
// advanced. The pair's union — and so its shared dose — is unchanged
// (the extension is covered by the partner already), but the partner's
// own flush edge gains room to retreat in the next greedy pass; a
// single-edge retreat from exact flush contact would disconnect the L
// and is rejected by legalMove, so greedy alone can never open a
// seam. Reports whether any edge advanced.
func loosenPairs(e *cover.Eval) bool {
	pitch := e.P.Params.Pitch
	moved := false
	for _, pr := range e.Pairs() {
		for _, idx := range [2]int{pr[0], pr[1]} {
			r := e.Shots[idx]
			partner := e.Shots[e.Partner(idx)]
			for _, m := range [4]struct {
				s side
				d float64
			}{{left, -pitch}, {right, pitch}, {bottom, -pitch}, {top, pitch}} {
				s := m.s
				nr := movedRect(r, s, m.d)
				var strip geom.Rect
				switch s {
				case left:
					strip = geom.Rect{X0: nr.X0, Y0: nr.Y0, X1: r.X0, Y1: nr.Y1}
				case right:
					strip = geom.Rect{X0: r.X1, Y0: nr.Y0, X1: nr.X1, Y1: nr.Y1}
				case bottom:
					strip = geom.Rect{X0: nr.X0, Y0: nr.Y0, X1: nr.X1, Y1: r.Y0}
				default:
					strip = geom.Rect{X0: nr.X0, Y0: r.Y1, X1: nr.X1, Y1: nr.Y1}
				}
				if !partner.ContainsRect(strip) || !cover.UnionIsLShot(nr, partner) {
					continue
				}
				e.SetShot(idx, nr)
				r = nr
				moved = true
			}
		}
	}
	return moved
}

// failCountRepair escapes the cost-greedy plateau by violation COUNT:
// it kicks one edge of a paired arm (then any other shot) by up to two
// pitches, accepts the kick when the fail count does not rise, lets a
// short greedy descent rebalance, and keeps the result only if the
// fail count actually dropped — otherwise the pre-kick configuration
// is restored exactly. Near a pairing seam the last failing pixel
// often sits in a whack-a-mole trade (fixing the underdosed interior
// pixel overdoses an exterior one), which no strict cost- or
// fail-descent single move resolves; the kick walks through the
// fail-neutral intermediate deterministically (fixed shot/edge/step
// order, first improvement wins).
func failCountRepair(e *cover.Eval, opt Options, baseFail int) bool {
	pitch := e.P.Params.Pitch
	entry := e.Stats().Fail()
	snapShots := e.SnapshotShots()
	snapPairs := e.Pairs()
	order := make([]int, 0, len(e.Shots))
	seen := make(map[int]bool, len(e.Shots))
	for _, pr := range snapPairs {
		order = append(order, pr[0], pr[1])
		seen[pr[0]], seen[pr[1]] = true, true
	}
	for i := range e.Shots {
		if !seen[i] {
			order = append(order, i)
		}
	}
	descendAndJudge := func() bool {
		if e.Stats().Fail() <= entry {
			for k := 0; k < 3 && e.Stats().Fail() > baseFail; k++ {
				if !greedyEdgeAdjust(e, opt) {
					break
				}
			}
			if e.Stats().Fail() < entry {
				return true
			}
		}
		e.ResetPaired(snapShots, snapPairs)
		return false
	}
	for _, idx := range order {
		for _, s := range [4]side{left, right, bottom, top} {
			for _, d := range [4]float64{pitch, -pitch, 2 * pitch, -2 * pitch} {
				nr := movedRect(e.Shots[idx], s, d)
				if !legalMove(e, idx, nr) {
					continue
				}
				e.SetShot(idx, nr)
				if descendAndJudge() {
					return true
				}
			}
		}
	}
	// coupled kicks: when both arms share an outer coordinate (the
	// union's own edge), moving either arm alone steps the contour and
	// always fails — the edge only moves as a unit
	for _, pr := range snapPairs {
		ri, rj := snapShots[pr[0]], snapShots[pr[1]]
		for _, s := range [4]side{left, right, bottom, top} {
			if coordOf(ri, s) != coordOf(rj, s) {
				continue
			}
			for _, d := range [4]float64{pitch, -pitch, 2 * pitch, -2 * pitch} {
				nri, nrj := movedRect(ri, s, d), movedRect(rj, s, d)
				// judge legality on the END state: the intermediate
				// single-arm move steps the union out of L shape, which
				// the evaluator handles fine and legalMove would reject
				if !e.P.MinSizeOK(nri) || !e.P.MinSizeOK(nrj) || !cover.UnionIsLShot(nri, nrj) {
					continue
				}
				e.SetShot(pr[0], nri)
				e.SetShot(pr[1], nrj)
				if descendAndJudge() {
					return true
				}
			}
		}
	}
	return false
}

// coordOf returns the coordinate of the given edge of r.
func coordOf(r geom.Rect, s side) float64 {
	switch s {
	case left:
		return r.X0
	case right:
		return r.X1
	case bottom:
		return r.Y0
	default:
		return r.Y1
	}
}

// lshapePitch is the rectilinearization pitch of the "lshape" method:
// curvilinear targets staircase on a 4 nm fracture grid, as a
// conventional fracture tool would.
const lshapePitch = 4

// lshapeFracture is L-shape based layout fracturing (Yu, Gao & Pan,
// the paper's reference [20]): a minimum rectangle partition of the
// target whose L-compatible piece pairs are matched by matchLPairs,
// each pair written as one L-shaped flash. Partition pieces are
// interior-disjoint, so every pair is flush: it has no overlap term
// and pairing leaves the dose untouched — no snapping or repair is
// needed, and there is no proximity compensation either.
func lshapeFracture(p *cover.Problem) (*engine.Solution, error) {
	rects, err := partition.Pieces(p, lshapePitch)
	if err != nil {
		return nil, fmt.Errorf("lshape: %w", err)
	}
	return &engine.Solution{Shots: rects, Pairs: pairRects(rects)}, nil
}

// pairRects returns a maximum set of disjoint L-compatible rectangle
// pairs, as {i, j} index pairs sorted by (i, j), taking the rectangles
// as they are (no snapping).
func pairRects(rects []geom.Rect) [][2]int {
	var cands []lCand
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			if cover.UnionIsLShot(rects[i], rects[j]) {
				cands = append(cands, lCand{i: i, j: j})
			}
		}
	}
	matched, _ := matchLPairs(cands, len(rects))
	var pairs [][2]int
	for _, c := range matched {
		pairs = append(pairs, [2]int{c.i, c.j})
	}
	return pairs
}

// lCandidates enumerates the L-compatible shot pairs, in ascending
// (i, j) order.
func lCandidates(p *cover.Problem, shots []geom.Rect) []lCand {
	tol := math.Max(p.Params.Sigma, math.Max(p.Params.Gamma, 2*p.Params.Pitch))
	var out []lCand
	for i := 0; i < len(shots); i++ {
		for j := i + 1; j < len(shots); j++ {
			if si, sj, ok := trySnapL(p, shots[i], shots[j], tol); ok {
				out = append(out, lCand{i: i, j: j, si: si, sj: sj})
			}
		}
	}
	return out
}

// trySnapL reports whether a and b (possibly after snapping one of
// them to the other's coordinates within tol) form an L, returning the
// L-forming coordinates. Refined arms rarely touch: the proximity blur
// bridges the seam, so refinement pulls facing inner edges apart by
// O(σ) and leaves outer edges misaligned by a pitch or two. A snap
// within max(σ, γ, 2·pitch) keeps those pairs eligible, and the repair
// pass absorbs the dose perturbation of the snap.
// Every subset of one rectangle's four coordinates is a snap variant;
// the valid variant whose union change does the least classification
// damage wins. Closing a seam gap means moving one arm's edges, and
// the same gap can close by growing into the target interior (nearly
// free) or by dragging an outer edge across the boundary (ruinous) —
// only a damage score over the union change tells them apart.
func trySnapL(p *cover.Problem, a, b geom.Rect, tol float64) (geom.Rect, geom.Rect, bool) {
	if cover.UnionIsLShot(a, b) {
		return a, b, true
	}
	bestA, bestB, best := a, b, -1
	consider := func(na, nb geom.Rect) {
		if !p.MinSizeOK(na) || !p.MinSizeOK(nb) || !cover.UnionIsLShot(na, nb) {
			return
		}
		if d := pairDamage(p, a, b, na, nb); best < 0 || d < best {
			bestA, bestB, best = na, nb, d
		}
	}
	for mask := 1; mask < 16; mask++ {
		consider(a, snapRect(b, a, tol, mask))
		consider(snapRect(a, b, tol, mask), b)
	}
	return bestA, bestB, best >= 0
}

// pairDamage scores a snap variant: exterior (Poff) pixels the snapped
// pair's union claims that the original union did not, plus interior
// (Pon) pixels the original union covered that the snapped union lost.
// The count approximates the CD-violation pressure the repair pass
// will have to absorb.
func pairDamage(p *cover.Problem, a, b, na, nb geom.Rect) int {
	g := p.Grid
	box := a.Union(b).Union(na.Union(nb))
	i0, j0 := g.PixelOf(geom.Pt(box.X0, box.Y0))
	i1, j1 := g.PixelOf(geom.Pt(box.X1, box.Y1))
	i0, j0 = g.ClampX(i0), g.ClampY(j0)
	i1, j1 = g.ClampX(i1), g.ClampY(j1)
	n := 0
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			c := g.Center(i, j)
			inOld := a.Contains(c) || b.Contains(c)
			inNew := na.Contains(c) || nb.Contains(c)
			if inOld == inNew {
				continue
			}
			switch p.Class[g.Index(i, j)] {
			case cover.Off:
				if inNew {
					n++
				}
			case cover.On:
				if inOld {
					n++
				}
			}
		}
	}
	return n
}

// snapRect snaps the mask-selected coordinates of r (bit 0 → X0,
// bit 1 → X1, bit 2 → Y0, bit 3 → Y1) to the nearest same-axis
// coordinate of ref when within tol: outer edges align to form the
// bounding-box corners of an L, inner edges close sub-tolerance gaps
// to flush contact.
func snapRect(r, ref geom.Rect, tol float64, mask int) geom.Rect {
	if mask&1 != 0 {
		r.X0 = snapCoord(r.X0, ref.X0, ref.X1, tol)
	}
	if mask&2 != 0 {
		r.X1 = snapCoord(r.X1, ref.X0, ref.X1, tol)
	}
	if mask&4 != 0 {
		r.Y0 = snapCoord(r.Y0, ref.Y0, ref.Y1, tol)
	}
	if mask&8 != 0 {
		r.Y1 = snapCoord(r.Y1, ref.Y0, ref.Y1, tol)
	}
	return r
}

// snapCoord returns the nearer of a and b when within tol of v, else v.
func snapCoord(v, a, b, tol float64) float64 {
	da, db := math.Abs(v-a), math.Abs(v-b)
	if da <= db {
		if da > 0 && da <= tol {
			return a
		}
	} else if db <= tol {
		return b
	}
	return v
}

// matchLPairs selects a maximum set of disjoint candidate pairs: the
// compatibility graph's components are two-colored by BFS (edges
// inside a color class — odd cycles — are dropped and counted), and
// Hopcroft–Karp maximum matching runs on the resulting bipartition.
// Deterministic: adjacency, coloring and edge insertion all follow
// ascending shot-index order. Returned pairs are sorted by (i, j).
func matchLPairs(cands []lCand, n int) ([]lCand, int) {
	adj := make([][]int, n)
	for _, c := range cands {
		adj[c.i] = append(adj[c.i], c.j)
		adj[c.j] = append(adj[c.j], c.i)
	}
	color := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	var queue []int
	for s := 0; s < n; s++ {
		if color[s] != -1 || len(adj[s]) == 0 {
			continue
		}
		color[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if color[v] == -1 {
					color[v] = 1 - color[u]
					queue = append(queue, v)
				}
			}
		}
	}
	left := make([]int, n)  // shot index -> left node id, -1 otherwise
	right := make([]int, n) // shot index -> right node id, -1 otherwise
	nl, nr := 0, 0
	for v := 0; v < n; v++ {
		left[v], right[v] = -1, -1
		switch color[v] {
		case 0:
			left[v] = nl
			nl++
		case 1:
			right[v] = nr
			nr++
		}
	}
	bg := graphx.NewBipartite(nl, nr)
	edgeCand := make(map[[2]int]int, len(cands))
	dropped := 0
	for ci, c := range cands {
		var l, r int
		switch {
		case color[c.i] == 0 && color[c.j] == 1:
			l, r = left[c.i], right[c.j]
		case color[c.i] == 1 && color[c.j] == 0:
			l, r = left[c.j], right[c.i]
		default: // same color: an odd-cycle chord
			dropped++
			continue
		}
		bg.AddEdge(l, r)
		edgeCand[[2]int{l, r}] = ci
	}
	matchL, _, _ := bg.MaxMatching()
	var pairs []lCand
	for l, r := range matchL {
		if r >= 0 {
			pairs = append(pairs, cands[edgeCand[[2]int{l, r}]])
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].i != pairs[b].i {
			return pairs[a].i < pairs[b].i
		}
		return pairs[a].j < pairs[b].j
	})
	return pairs, dropped
}
