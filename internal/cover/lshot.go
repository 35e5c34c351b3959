// L-shot primitive: two rectangles sharing one dose. An L-shaped
// aperture writes the union of two overlapping (or flush-adjacent)
// rectangles in a single flash. By linearity of the proximity
// convolution over indicator functions,
//
//	1_A + 1_B − 1_{A∩B} = 1_{A∪B},
//
// so the dose field of the single L flash equals the sum of the two
// rectangle doses minus the dose of their intersection. The evaluator
// represents an L-shot as a *pair* of entries in the shot list bound
// together by a partner index; the pair contributes the corrected dose
// and prices as one flash. Pairing keeps every existing mutator
// incremental: moving one arm of an L re-scans only the changed-edge
// strips of the arm plus the changed overlap term.
//
// When the two rectangles are flush (their closed intersection has
// zero area) there is no overlap term at all — the pair's dose is
// exactly the sum of the arms, which is why the matching pass upstream
// prefers flush candidates.
package cover

import (
	"fmt"

	"maskfrac/internal/geom"
)

// pairOverlap returns the positive-area intersection of two paired
// rectangles, or the zero Rect when they only touch or are disjoint.
// The zero Rect is the package-wide "no overlap term" sentinel: a zero
// overlap contributes no dose (its edge profiles cancel exactly), so
// paired bookkeeping skips it everywhere.
func pairOverlap(a, b geom.Rect) geom.Rect {
	o := a.Intersect(b)
	if o.X1 <= o.X0 || o.Y1 <= o.Y0 {
		return geom.Rect{}
	}
	return o
}

// UnionIsLShot reports whether the union of a and b is exactly an
// L-shape — the compatibility predicate of the matching pass. The
// union is an L iff it is connected with positive-length contact,
// neither rectangle contains the other, and exactly one corner of the
// joint bounding box is uncovered (zero uncovered corners is a plain
// rectangle; two is a T, Z or staircase; four is disjoint). Closed
// containment is used throughout so flush-adjacent pairs qualify.
func UnionIsLShot(a, b geom.Rect) bool {
	if a.Empty() || b.Empty() {
		return false
	}
	// connected: the closed intersection must be nonempty on both axes
	// (a shared edge segment or area overlap; a corner-point touch is
	// rejected below by the corner count)
	if a.X0 > b.X1 || b.X0 > a.X1 || a.Y0 > b.Y1 || b.Y0 > a.Y1 {
		return false
	}
	if a.ContainsRect(b) || b.ContainsRect(a) {
		return false
	}
	bb := a.Union(b)
	uncovered := 0
	for _, c := range [4]geom.Point{
		geom.Pt(bb.X0, bb.Y0), geom.Pt(bb.X1, bb.Y0),
		geom.Pt(bb.X0, bb.Y1), geom.Pt(bb.X1, bb.Y1),
	} {
		if !a.Contains(c) && !b.Contains(c) {
			uncovered++
		}
	}
	return uncovered == 1
}

// LegalMove reports whether replacing shot i by nr keeps the
// configuration writable: the minimum shot size holds, and when shot i
// is one arm of an L-shot the moved arm still forms an L with its
// partner (a single L-aperture flash cannot write a T, staircase or
// disconnected pair). Unpaired shots only check the size constraint.
func (e *Eval) LegalMove(i int, nr geom.Rect) bool {
	if !e.P.MinSizeOK(nr) {
		return false
	}
	if j := e.partner[i]; j >= 0 && !UnionIsLShot(nr, e.Shots[j]) {
		return false
	}
	return true
}

// Partner returns the index of the shot paired with shot i, or −1 when
// shot i is an unpaired rectangle.
func (e *Eval) Partner(i int) int { return e.partner[i] }

// PairCount returns the number of L-shot pairs in the configuration.
func (e *Eval) PairCount() int {
	n := 0
	for i, p := range e.partner {
		if p > i {
			n++
		}
	}
	return n
}

// FlashCount returns the number of e-beam flashes the configuration
// writes in: each L-shot pair is one flash, every unpaired rectangle
// is one flash.
func (e *Eval) FlashCount() int { return len(e.Shots) - e.PairCount() }

// Pairs returns the L-shot pairs as {i, j} index pairs with i < j,
// sorted ascending by i. The slice is freshly allocated.
func (e *Eval) Pairs() [][2]int {
	var out [][2]int
	for i, p := range e.partner {
		if p > i {
			out = append(out, [2]int{i, p})
		}
	}
	return out
}

// Pair merges shots i and j into one L-shot: both keep their slots in
// the shot list, but their doses are corrected by subtracting the
// overlap term so the pair delivers exactly the dose of the single
// L-aperture flash over their union. Pair panics if i == j, either
// shot is already paired, or either carries a non-unit dose (an L-shot
// is one flash at one dose). The caller is responsible for geometric
// L-compatibility (see UnionIsLShot); the dose bookkeeping itself is
// valid for any two rectangles. O(overlap support box).
func (e *Eval) Pair(i, j int) {
	e.checkPairable("Pair", i, j)
	e.partner[i], e.partner[j] = j, i
	if o := pairOverlap(e.Shots[i], e.Shots[j]); o != (geom.Rect{}) {
		e.applyShot(o, -1)
	} else {
		e.finishMutation(0)
	}
	if e.check {
		e.crossCheck("Pair")
	}
}

// checkPairable panics unless shots i and j can merge into one
// L-shot: distinct, both unpaired, both at unit dose.
func (e *Eval) checkPairable(op string, i, j int) {
	if i == j {
		panic(fmt.Sprintf("cover: %s(%d, %d): same shot", op, i, j))
	}
	if e.partner[i] >= 0 || e.partner[j] >= 0 {
		panic(fmt.Sprintf("cover: %s(%d, %d): shot already paired", op, i, j))
	}
	if e.ShotDose(i) != 1 || e.ShotDose(j) != 1 {
		panic(fmt.Sprintf("cover: %s(%d, %d): shot at non-unit dose", op, i, j))
	}
}

// Unpair splits the L-shot containing shot i back into two independent
// rectangles, restoring the overlap dose. It is the exact inverse of
// Pair. Panics if shot i is not paired. O(overlap support box).
func (e *Eval) Unpair(i int) {
	j := e.partner[i]
	if j < 0 {
		panic(fmt.Sprintf("cover: Unpair(%d): shot not paired", i))
	}
	e.partner[i], e.partner[j] = -1, -1
	if o := pairOverlap(e.Shots[i], e.Shots[j]); o != (geom.Rect{}) {
		e.applyShot(o, 1)
	} else {
		e.finishMutation(0)
	}
	if e.check {
		e.crossCheck("Unpair")
	}
}

// PairDelta returns the change in Eq. 5 cost if shots i and j were
// paired, without modifying the evaluator — the scoring counterpart of
// Pair. Panics under the same conditions as Pair.
func (e *Eval) PairDelta(i, j int) float64 {
	e.checkPairable("PairDelta", i, j)
	e.Evals++
	o := pairOverlap(e.Shots[i], e.Shots[j])
	if o == (geom.Rect{}) {
		return 0
	}
	return e.termScan([]doseTerm{{o, -1}})
}

// UnpairDelta returns the change in Eq. 5 cost if the L-shot containing
// shot i were split back into rectangles — the scoring counterpart of
// Unpair. Panics if shot i is not paired.
func (e *Eval) UnpairDelta(i int) float64 {
	j := e.partner[i]
	if j < 0 {
		panic(fmt.Sprintf("cover: UnpairDelta(%d): shot not paired", i))
	}
	e.Evals++
	o := pairOverlap(e.Shots[i], e.Shots[j])
	if o == (geom.Rect{}) {
		return 0
	}
	return e.termScan([]doseTerm{{o, 1}})
}

// ResetPaired replaces the entire configuration with the given shots
// and L-shot pairs and rebuilds dose and violation state from scratch,
// the paired counterpart of Reset; like Reset it clears per-shot
// doses. Each pairs element is an {i, j} index pair into shots;
// indices must be distinct across pairs.
func (e *Eval) ResetPaired(shots []geom.Rect, pairs [][2]int) {
	clear(e.Dose.V)
	e.Shots = append(e.Shots[:0], shots...)
	e.resetPartners(len(shots))
	e.doses = nil
	for _, s := range e.Shots {
		e.accumulate(s, 1)
	}
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		if i == j || e.partner[i] >= 0 || e.partner[j] >= 0 {
			panic(fmt.Sprintf("cover: ResetPaired: invalid pair {%d, %d}", i, j))
		}
		e.partner[i], e.partner[j] = j, i
		if o := pairOverlap(e.Shots[i], e.Shots[j]); o != (geom.Rect{}) {
			e.accumulate(o, -1)
		}
	}
	e.rebuildState()
	if e.check {
		e.crossCheck("ResetPaired")
	}
}

// resetPartners sizes the partner table for n shots, all unpaired.
func (e *Eval) resetPartners(n int) {
	if cap(e.partner) < n {
		e.partner = make([]int, n)
	} else {
		e.partner = e.partner[:n]
	}
	for i := range e.partner {
		e.partner[i] = -1
	}
}

// EvaluatePaired computes the violation statistics of a shot set with
// L-shot pairs from scratch: every shot accumulates positively, every
// pair's positive-area overlap accumulates negatively. It is the
// from-scratch reference the paired evaluator's cross-check mode
// asserts against. With no pairs it is exactly Evaluate.
func (p *Problem) EvaluatePaired(shots []geom.Rect, pairs [][2]int) Stats {
	return p.evaluate(shots, pairs, nil)
}

// doseTerm is one signed rectangle term of a multi-term dose change.
type doseTerm struct {
	r    geom.Rect
	sign float64
}

// termScanMaxTerms bounds a termScan: a paired shot move contributes at
// most four terms (new shot, old shot, old overlap, new overlap).
const termScanMaxTerms = 4

// termScan scores the Eq. 5 cost change of applying a set of signed
// rectangle dose terms simultaneously, without modifying the evaluator.
// It is the multi-term counterpart of moveScan's scoring path: the cost
// at each pixel is evaluated once against the summed dose change, which
// is required for correctness — pixelCost is piecewise linear with a
// breakpoint at ρ, so the deltas of the individual terms do not sum.
// Every term must be a nonzero rectangle. O(union support box).
func (e *Eval) termScan(terms []doseTerm) float64 {
	if len(terms) > termScanMaxTerms {
		panic("cover: termScan: too many terms")
	}
	p := e.P
	g := p.Grid
	model := p.Model
	sup := model.Support()

	ubox := geom.Rect{}
	for _, t := range terms {
		ubox = ubox.Union(t.r)
	}
	ubox = ubox.Inset(-sup)
	ui0, uj0 := g.PixelOf(geom.Pt(ubox.X0, ubox.Y0))
	ui1, uj1 := g.PixelOf(geom.Pt(ubox.X1, ubox.Y1))
	ui0, uj0 = g.ClampX(ui0), g.ClampY(uj0)
	ui1, uj1 = g.ClampX(ui1), g.ClampY(uj1)
	if ui1 < ui0 || uj1 < uj0 {
		return 0
	}
	nx, ny := ui1-ui0+1, uj1-uj0+1
	nc := model.Components()
	nt := len(terms)

	buf := e.scratch(nt * nc * (nx + ny))
	var ex, ey [termScanMaxTerms][2][]float32
	for t := 0; t < nt; t++ {
		for c := 0; c < nc; c++ {
			ex[t][c] = carve(&buf, nx)
			ey[t][c] = carve(&buf, ny)
			model.EdgeProfiles32(ex[t][c], c, g.X0, g.Pitch, ui0, terms[t].r.X0, terms[t].r.X1)
			model.EdgeProfiles32(ey[t][c], c, g.Y0, g.Pitch, uj0, terms[t].r.Y0, terms[t].r.Y1)
		}
	}

	delta := 0.0
	var eyv [termScanMaxTerms][2]float64
	for j := uj0; j <= uj1; j++ {
		jo := j - uj0
		base := j * g.W
		// hoist the signed, weighted row factors once per row
		for t := 0; t < nt; t++ {
			for c := 0; c < nc; c++ {
				eyv[t][c] = terms[t].sign * model.Weight(c) * float64(ey[t][c][jo])
			}
		}
		for i := ui0; i <= ui1; i++ {
			k := base + i
			if p.Class[k] == Band {
				continue
			}
			io := i - ui0
			dI := 0.0
			for t := 0; t < nt; t++ {
				for c := 0; c < nc; c++ {
					dI += float64(ex[t][c][io]) * eyv[t][c]
				}
			}
			if dI == 0 {
				continue
			}
			v := e.Dose.V[k]
			delta += p.pixelCost(k, v+dI) - p.pixelCost(k, v)
		}
	}
	e.countScored(nx*ny, 0)
	return delta
}

// pairedMoveDelta scores the replacement of a paired shot when the
// replacement also changes the pair's overlap term: the dose change is
// I_repl − I_old + I_oldOverlap − I_newOverlap, scored in one pass.
func (e *Eval) pairedMoveDelta(old, repl, oOld, oNew geom.Rect) float64 {
	terms := make([]doseTerm, 0, termScanMaxTerms)
	terms = append(terms, doseTerm{repl, 1}, doseTerm{old, -1})
	if oOld != (geom.Rect{}) {
		terms = append(terms, doseTerm{oOld, 1})
	}
	if oNew != (geom.Rect{}) {
		terms = append(terms, doseTerm{oNew, -1})
	}
	return e.termScan(terms)
}
