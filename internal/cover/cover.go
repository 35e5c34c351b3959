// Package cover defines the model-based mask fracturing problem (paper
// §2): the sampled target shape, the pixel classification into Pon /
// Poff / don't-care band Px, the dose constraints, and an incremental
// evaluator used by all fracturing heuristics to score candidate shot
// configurations.
package cover

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync/atomic"

	"maskfrac/internal/ebeam"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// Params are the fracturing parameters. The paper's experiments use
// Gamma = 2 nm, Sigma = 6.25 nm, Pitch Δp = 1 nm, Rho = 0.5 and a tool
// minimum shot size Lmin.
type Params struct {
	Sigma float64 // forward-scattering blur σ (α) in nm
	Gamma float64 // CD tolerance γ in nm
	Rho   float64 // dose threshold ρ (fraction of full dose)
	Pitch float64 // pixel size Δp in nm
	Lmin  float64 // minimum shot width/height in nm

	// Optional two-Gaussian proximity model: backscatter range β and
	// backscatter ratio η. Eta = 0 (the default and the paper's model)
	// selects the single forward Gaussian.
	Beta float64
	Eta  float64
}

// DefaultParams returns the parameter set used in the paper's
// experimental section (§5) with Lmin = 8 nm.
func DefaultParams() Params {
	return Params{Sigma: 6.25, Gamma: 2, Rho: 0.5, Pitch: 1, Lmin: 8}
}

// Validate checks that the parameters are physically sensible.
func (p Params) Validate() error {
	switch {
	case p.Sigma <= 0:
		return fmt.Errorf("cover: sigma %g must be positive", p.Sigma)
	case p.Gamma < 0:
		return fmt.Errorf("cover: gamma %g must be non-negative", p.Gamma)
	case p.Rho <= 0 || p.Rho >= 1:
		return fmt.Errorf("cover: rho %g must be in (0,1)", p.Rho)
	case p.Pitch <= 0:
		return fmt.Errorf("cover: pitch %g must be positive", p.Pitch)
	case p.Lmin <= 0:
		return fmt.Errorf("cover: lmin %g must be positive", p.Lmin)
	case p.Eta < 0:
		return fmt.Errorf("cover: eta %g must be non-negative", p.Eta)
	case p.Eta > 0 && p.Beta <= 0:
		return fmt.Errorf("cover: beta %g must be positive when eta is set", p.Beta)
	}
	return nil
}

// model builds the proximity model the parameters describe.
func (p Params) model() *ebeam.Model {
	if p.Eta > 0 {
		return ebeam.NewDoubleGaussian(p.Sigma, p.Beta, p.Eta)
	}
	return ebeam.NewModel(p.Sigma)
}

// Class is the constraint class of a pixel.
type Class uint8

const (
	// Off pixels (Poff) lie outside the target, more than γ from its
	// boundary; they require Itot < ρ.
	Off Class = iota
	// On pixels (Pon) lie inside the target, more than γ from its
	// boundary; they require Itot ≥ ρ.
	On
	// Band pixels (Px) lie within γ of the boundary and carry no
	// constraint.
	Band
)

// Problem is a sampled fracturing instance for a target: one mask
// shape, or a group of shapes written together (a main feature plus its
// sub-resolution assist features).
type Problem struct {
	Target  geom.Polygon   // the primary mask shape (Targets[0])
	Targets []geom.Polygon // all shapes of the instance
	Params  Params
	Grid    raster.Grid  // sampling grid covering the targets plus 3σ margin
	Model   *ebeam.Model // proximity model
	Inside  *raster.Bitmap
	Class   []Class // per-pixel class, row-major over Grid

	nOn, nOff int

	// tau is the near-threshold margin τ of the evaluator's near
	// bitmap (see Eval): a bound on how far the dose at any pixel moves
	// when one shot edge moves by one pitch, times a safety factor, so
	// a pixel more than τ from ρ cannot change its Eq. 5 term under
	// such a move. Derived from the model in buildProblem.
	tau float64

	// arena recycles evaluator buffers across the NewEval/Close churn
	// of this problem's solve; acquired lazily, returned by Recycle.
	arena atomic.Pointer[Arena]
}

// Arena returns the problem's buffer arena, drawing one from the
// process-wide pool on first use (or after Recycle).
func (p *Problem) Arena() *Arena {
	if a := p.arena.Load(); a != nil {
		return a
	}
	a := NewArena()
	if !p.arena.CompareAndSwap(nil, a) {
		a.recycle()
		return p.arena.Load()
	}
	return a
}

// Recycle detaches the problem's arena and returns it (with its pooled
// buffers) to the process-wide pool, so the next solve's evaluators
// reuse the memory. Call it when no evaluator of this problem is live;
// the engine recycles each region subproblem after its region solve.
// The problem itself stays usable — a later NewEval simply draws a
// fresh arena.
func (p *Problem) Recycle() {
	if a := p.arena.Swap(nil); a != nil {
		a.recycle()
	}
}

// NewProblem samples the target shape onto a grid with pitch
// params.Pitch, covering the shape's bounding box plus a 3σ+γ margin,
// and classifies every pixel into Pon, Poff or the band Px.
func NewProblem(target geom.Polygon, params Params) (*Problem, error) {
	return NewMultiProblem([]geom.Polygon{target}, params)
}

// NewMultiProblem samples a group of disjoint target shapes into one
// fracturing instance. The shapes share the dose budget: every interior
// pixel of any shape must reach ρ and every exterior pixel must stay
// below it, so assist features and their main feature are fractured
// together (as on a real mask, where SRAF satellites sit within the
// proximity range of the feature they assist).
func NewMultiProblem(targets []geom.Polygon, params Params) (*Problem, error) {
	return buildProblem(targets, params, nil)
}

// buildProblem is the shared constructor; model, when non-nil, is an
// already-built proximity model for the same params (Subproblem passes
// the parent's so region instances share the read-only LUT tables
// instead of rebuilding them per region).
func buildProblem(targets []geom.Polygon, params Params, model *ebeam.Model) (*Problem, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("cover: no target shapes")
	}
	cloned := make([]geom.Polygon, len(targets))
	box := geom.Rect{}
	for i, t := range targets {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("cover: invalid target %d: %w", i, err)
		}
		cloned[i] = t.Clone()
		box = box.Union(t.Bounds())
	}
	if model == nil {
		model = params.model()
	}
	margin := model.Support() + params.Gamma + 2*params.Pitch
	grid := raster.GridCovering(box, margin, params.Pitch)
	inside := raster.NewBitmap(grid)
	for _, t := range cloned {
		bm, err := raster.Rasterize(t, grid)
		if err != nil {
			return nil, err
		}
		for k, v := range bm.Bits {
			if v {
				inside.Bits[k] = true
			}
		}
	}
	p := &Problem{
		Target:  cloned[0],
		Targets: cloned,
		Params:  params,
		Grid:    grid,
		Model:   model,
		Inside:  inside,
		Class:   make([]Class, grid.Len()),
	}
	p.tau = nearMargin(model, params.Pitch)
	p.classify()
	return p, nil
}

// nearMargin derives the near-threshold margin τ from the model:
// 2.5 × Σ_c w_c · sup_t |P_c(t+Δp) − P_c(t)|. A one-pitch move of one
// edge changes the dose at a pixel by at most the sum, so the factor
// puts such a move at 0.4 τ, inside the τ/2 bound the pruned scorer
// admits. ≈ 0.23 at the paper's parameters.
func nearMargin(model *ebeam.Model, pitch float64) float64 {
	step := 0.0
	for c := 0; c < model.Components(); c++ {
		step += model.Weight(c) * model.MaxStep(c, pitch)
	}
	return 2.5 * step
}

// InteractionRadius returns the one-sided independence margin of the
// instance: the proximity kernel's truncation radius (3σ of the widest
// component) plus the CD tolerance γ. Two targets whose bounding boxes,
// each inflated by this radius, do not overlap are farther apart than
// the interaction range 2·(3σ+γ) and cannot affect each other's
// constrained pixels — the engine's region decomposition builds on
// this.
func (p *Problem) InteractionRadius() float64 {
	return p.Model.Support() + p.Params.Gamma
}

// Subproblem builds the fracturing instance of a subset of the
// problem's targets, exactly as NewMultiProblem would for those shapes
// alone — same grid placement, same pixel classes. Region solves on a
// subproblem therefore produce byte-identical shots to solving the
// subset on its own.
//
// The subproblem shares the parent's read-only proximity model (the
// LUT tables are immutable after construction) but nothing mutable:
// each subproblem draws its own buffer arena, so concurrent region
// solves never contend.
func (p *Problem) Subproblem(targets []int) (*Problem, error) {
	subset := make([]geom.Polygon, len(targets))
	for i, t := range targets {
		if t < 0 || t >= len(p.Targets) {
			return nil, fmt.Errorf("cover: subproblem target %d out of range", t)
		}
		subset[i] = p.Targets[t]
	}
	return buildProblem(subset, p.Params, p.Model)
}

// ContainsPoint reports whether pt lies inside any target shape.
func (p *Problem) ContainsPoint(pt geom.Point) bool {
	for _, t := range p.Targets {
		if t.Contains(pt) {
			return true
		}
	}
	return false
}

// TargetBounds returns the bounding box of all target shapes.
func (p *Problem) TargetBounds() geom.Rect {
	box := geom.Rect{}
	for _, t := range p.Targets {
		box = box.Union(t.Bounds())
	}
	return box
}

// classify assigns Pon/Poff/Px classes: pixels within Gamma of the
// target boundary form the don't-care band, the rest split by
// inside/outside.
func (p *Problem) classify() {
	g := p.Grid
	band := make([]bool, g.Len())
	gamma := p.Params.Gamma
	// mark pixels within gamma of any boundary edge (local boxes only)
	for _, target := range p.Targets {
		p.markBand(band, target, gamma)
	}
	for k := range p.Class {
		switch {
		case band[k]:
			p.Class[k] = Band
		case p.Inside.Bits[k]:
			p.Class[k] = On
			p.nOn++
		default:
			p.Class[k] = Off
			p.nOff++
		}
	}
}

// markBand flags pixels within gamma of the polygon's boundary.
func (p *Problem) markBand(band []bool, target geom.Polygon, gamma float64) {
	g := p.Grid
	for ei := range target {
		a, b := target.Edge(ei)
		box := geom.RectFromCorners(a, b).Inset(-(gamma + g.Pitch))
		i0, j0 := g.PixelOf(geom.Pt(box.X0, box.Y0))
		i1, j1 := g.PixelOf(geom.Pt(box.X1, box.Y1))
		i0, j0 = g.ClampX(i0), g.ClampY(j0)
		i1, j1 = g.ClampX(i1), g.ClampY(j1)
		for j := j0; j <= j1; j++ {
			for i := i0; i <= i1; i++ {
				k := g.Index(i, j)
				if band[k] {
					continue
				}
				if geom.PointSegDist(g.Center(i, j), a, b) <= gamma {
					band[k] = true
				}
			}
		}
	}
}

// OnCount returns |Pon|.
func (p *Problem) OnCount() int { return p.nOn }

// OffCount returns |Poff| (within the sampled window).
func (p *Problem) OffCount() int { return p.nOff }

// MinSizeOK reports whether shot s satisfies the minimum shot size
// constraint (paper §2, condition 2), with a small numeric slack.
func (p *Problem) MinSizeOK(s geom.Rect) bool {
	const eps = 1e-9
	return s.W() >= p.Params.Lmin-eps && s.H() >= p.Params.Lmin-eps
}

// InteriorFraction returns the fraction of shot s's area that lies
// inside the target shape, estimated on the sampling grid. Used by the
// paper's 80% test-shot and 90% merge criteria.
func (p *Problem) InteriorFraction(s geom.Rect) float64 {
	g := p.Grid
	i0, j0 := g.PixelOf(geom.Pt(s.X0, s.Y0))
	i1, j1 := g.PixelOf(geom.Pt(s.X1-1e-9, s.Y1-1e-9))
	i0, j0 = g.ClampX(i0), g.ClampY(j0)
	i1, j1 = g.ClampX(i1), g.ClampY(j1)
	total, in := 0, 0
	for j := j0; j <= j1; j++ {
		for i := i0; i <= i1; i++ {
			c := g.Center(i, j)
			if !s.Contains(c) {
				continue
			}
			total++
			if p.Inside.Bits[g.Index(i, j)] {
				in++
			}
		}
	}
	if total == 0 {
		// shot smaller than a pixel: fall back to center point test
		if p.ContainsPoint(s.Center()) {
			return 1
		}
		return 0
	}
	return float64(in) / float64(total)
}

// Stats summarizes the constraint violations of a shot configuration.
type Stats struct {
	Cost    float64 // Σ |Itot − ρ| over failing pixels (paper Eq. 5)
	FailOn  int     // failing pixels in Pon (dose too low)
	FailOff int     // failing pixels in Poff (dose too high)
}

// Fail returns the total number of failing pixels.
func (s Stats) Fail() int { return s.FailOn + s.FailOff }

// Feasible reports whether no pixel fails.
func (s Stats) Feasible() bool { return s.Fail() == 0 }

// Evaluate computes the violation statistics of an arbitrary shot set
// from scratch. The dose field and accumulation scratch come from the
// problem's arena, so repeated from-scratch evaluations (quality
// reports, cross-checks) allocate nothing at steady state.
func (p *Problem) Evaluate(shots []geom.Rect) Stats {
	return p.evaluate(shots, nil, nil)
}

// evaluate is the from-scratch reference behind Evaluate,
// EvaluatePaired and the evaluator's cross-check: every shot
// accumulates at its dose (doses nil means unit dose throughout), then
// every pair's positive-area overlap accumulates negatively.
func (p *Problem) evaluate(shots []geom.Rect, pairs [][2]int, doses []float64) Stats {
	a := p.Arena()
	dose := raster.Field{Grid: p.Grid, V: a.getF64(p.Grid.Len())}
	scratch := a.getF32(0)
	for i, s := range shots {
		d := 1.0
		if doses != nil {
			d = doses[i]
		}
		scratch = p.Model.AccumulateShotBuf(&dose, s, d, scratch)
	}
	for _, pr := range pairs {
		if o := pairOverlap(shots[pr[0]], shots[pr[1]]); o != (geom.Rect{}) {
			scratch = p.Model.AccumulateShotBuf(&dose, o, -1, scratch)
		}
	}
	st := p.statsOf(&dose)
	a.putF32(scratch)
	a.putF64(dose.V)
	return st
}

// statsOf scans a dose field against the pixel classes.
func (p *Problem) statsOf(dose *raster.Field) Stats {
	var st Stats
	rho := p.Params.Rho
	for k, c := range p.Class {
		v := dose.V[k]
		switch c {
		case On:
			if v < rho {
				st.FailOn++
				st.Cost += rho - v
			}
		case Off:
			if v >= rho {
				st.FailOff++
				st.Cost += v - rho
			}
		}
	}
	return st
}

// pixelCost returns the Eq. 5 contribution of pixel k at dose v.
func (p *Problem) pixelCost(k int, v float64) float64 {
	switch p.Class[k] {
	case On:
		if v < p.Params.Rho {
			return p.Params.Rho - v
		}
	case Off:
		if v >= p.Params.Rho {
			return v - p.Params.Rho
		}
	}
	return 0
}

// Process-wide evaluator effort counters, aggregated across every Eval
// in the process; exported to /metrics by the fracturing service.
var (
	evalMutationsTotal     atomic.Int64
	evalPixelsMutatedTotal atomic.Int64
	evalPixelsScoredTotal  atomic.Int64
	evalPixelsSkippedTotal atomic.Int64
	evalPixelsSpecTotal    atomic.Int64
	mutationObserver       atomic.Value // holds a mutObs
)

// mutObs wraps the observer callback so atomic.Value can store a nil fn.
type mutObs struct{ fn func(pixels int) }

// EvalEffort is a snapshot of the process-wide evaluator effort
// counters: how many mutations all evaluators have committed, how
// many pixels their incremental scans covered while committing
// (PixelsMutated) or scoring candidates (PixelsScored, the strip
// area), and how many of the scored strip pixels the near-threshold
// scorer proved unchanged without visiting them (PixelsSkipped, a
// subset of PixelsScored). PixelsSpeculative counts the scored and
// mutated pixels of evaluators whose held effort was discarded (see
// Eval.HoldEffort); they are in none of the other counters.
type EvalEffort struct {
	Mutations         int64
	PixelsMutated     int64
	PixelsScored      int64
	PixelsSkipped     int64
	PixelsSpeculative int64
}

// EvalCounters returns the current process-wide evaluator effort totals.
func EvalCounters() EvalEffort {
	return EvalEffort{
		Mutations:         evalMutationsTotal.Load(),
		PixelsMutated:     evalPixelsMutatedTotal.Load(),
		PixelsScored:      evalPixelsScoredTotal.Load(),
		PixelsSkipped:     evalPixelsSkippedTotal.Load(),
		PixelsSpeculative: evalPixelsSpecTotal.Load(),
	}
}

// SetMutationObserver installs fn to be called after every committed
// evaluator mutation, process-wide, with the number of pixels the
// commit scanned. The service layer uses it to feed a pixels-per-
// mutation histogram; fn must be safe for concurrent use (region
// solvers mutate evaluators from many goroutines) and cheap — it runs
// on the mutation hot path. A nil fn removes the observer.
func SetMutationObserver(fn func(pixels int)) {
	mutationObserver.Store(mutObs{fn})
}

// evalCheckEnv is the process default for the evaluator's cross-check
// mode: setting MASKFRAC_EVAL_CHECK to a non-empty value makes every
// new evaluator assert, after each mutation, that its maintained state
// matches both a scan of its own dose field and Problem.Evaluate from
// scratch. Meant for debugging — it turns every O(support) mutation
// back into O(grid + shots).
var evalCheckEnv = os.Getenv("MASKFRAC_EVAL_CHECK") != ""

// Eval tracks a shot configuration, its dose field and its violation
// state incrementally, so heuristics can score and commit local
// modifications without full re-simulation. The maintained invariant
// after every mutation is
//
//	stats, failOn, failOff  ==  statsOf(Dose) and its failing-pixel sets
//
// with Cost equal up to float rounding (the running sum accumulates
// retire/restore pairs in mutation order; it is re-anchored to exactly
// zero whenever no pixel fails, and RecomputeStats re-anchors it on
// demand). FailOn/FailOff counts and the bitmaps are exact.
//
// Alongside, the evaluator keeps the near bitmap, one bit per pixel:
// bit k is set iff pixel k is On with Dose < ρ+τ or Off with
// Dose ≥ ρ−τ, τ being the problem's near-threshold margin. Failing
// pixels are always set, Band pixels never. DeltaCost uses it to score
// a small single-axis move on the set pixels alone (see moveScan).
//
// Shots may be merged pairwise into L-shots (Pair/Unpair, see
// lshot.go): a paired shot keeps its slot in Shots but the pair shares
// one dose — the overlap term is subtracted so the pair delivers the
// dose of a single L-aperture flash over the union, and it prices as
// one flash. Every mutator below stays incremental on paired shots.
//
// Each shot also carries a dose multiplier (SetShotDose, see dose.go),
// 1 unless set otherwise; an L-shot's arms always stay at unit dose.
//
// An Eval is not safe for concurrent use.
type Eval struct {
	P     *Problem
	Shots []geom.Rect
	Dose  *raster.Field

	stats   Stats
	failOn  *raster.Bitmap
	failOff *raster.Bitmap
	near    []uint64 // the near bitmap, 64 pixels per word

	// partner[i] is the index of the shot L-paired with shot i, −1 when
	// shot i is an unpaired rectangle. Symmetric: partner[partner[i]]
	// == i for every paired i. Maintained by every structural mutator.
	partner []int

	// doses[i] is shot i's dose multiplier; nil while every shot has
	// always been at unit dose, so rectangle-only solvers never touch
	// it. Maintained by every structural mutator once allocated.
	doses []float64

	// Evals counts constraint evaluations (Stats queries and DeltaCost
	// scorings) since construction — the solver effort measure reported
	// by refinement telemetry. Since Stats became O(1), the pixel
	// counters below are the truthful cost measure.
	Evals int
	// Mutations counts committed configuration changes (Add, Remove,
	// SetShot, ApplyDelta) since construction.
	Mutations int
	// PixelsMutated counts pixels visited committing mutations;
	// PixelsScored counts the strip pixels of scored candidates, and
	// PixelsSkipped those of them the near-threshold scorer proved
	// unchanged without visiting.
	PixelsMutated int64
	PixelsScored  int64
	PixelsSkipped int64

	check   bool       // cross-check mode, see SetCrossCheck
	noPrune bool       // score every move with the full strip scan (tests)
	tab     edgeTabs   // moveScan scratch: per-component 1D edge tables
	memo    [2]tabMemo // the unchanged-axis tables of the last moves
	buf     []float32  // float32 scratch: see bufLayout
	row     []float64  // ShotRows output row, reused across candidates
	arena   *Arena     // owner of the buffers above; receives them on Close

	// holding keeps the evaluator's effort out of the process-wide
	// counters until ReleaseEffort (see HoldEffort); heldMut is the
	// pixel count of every mutation held since
	holding bool
	heldMut []int
}

// tabMemo remembers the last unchanged-axis edge tables moveScan filled
// on one axis (0 = x, 1 = y), keyed on the edge pair and the window.
// By the strip kernel's exactness contract the tables are a function
// of the key alone, so a key hit hands back the bits a refill would
// write. A single-axis move's unchanged-axis tables repeat from one
// candidate to the next: the four moves of a shot's x edges share one
// y table, and so does the commit of the winner.
type tabMemo struct {
	a, b     float64
	start, n int // window: pixel indices start … start+n−1
	valid    bool
	tab      [2][]float32 // per component; len n, in the memo region of Eval.buf
}

// edgeTabs holds the per-component 1D edge-profile tables of one
// moveScan, sampled over the move's scan window via the float32 strip
// kernels. The model has at most two Gaussian components.
type edgeTabs struct {
	exOld, exNew [2][]float32
	eyOld, eyNew [2][]float32
}

// NewEval returns an evaluator seeded with the given shots. The shot
// list is copied; building the initial dose field and violation state
// costs O(grid + Σ shot support boxes). The evaluator's buffers come
// from the problem's arena — call Close when done with the evaluator
// to return them for reuse.
func NewEval(p *Problem, shots []geom.Rect) *Eval {
	a := p.Arena()
	n := p.Grid.Len()
	e := &Eval{
		P:       p,
		Dose:    &raster.Field{Grid: p.Grid, V: a.getF64(n)},
		failOn:  &raster.Bitmap{Grid: p.Grid, Bits: a.getBits(n)},
		failOff: &raster.Bitmap{Grid: p.Grid, Bits: a.getBits(n)},
		near:    a.getWords((n + 63) / 64),
		check:   evalCheckEnv,
		arena:   a,
	}
	acc, memo := e.bufLayout()
	e.buf = a.getF32(acc + memo)
	e.Reset(shots)
	return e
}

// Close returns the evaluator's buffers (dose field, failing and near
// bitmaps, the float32 buffer of accumulation scratch, memo and edge
// tables) to the problem's arena and nils the fields, so a
// use-after-close panics instead of corrupting a successor evaluator's
// state. Close is idempotent; the shot list stays readable. Callers
// that keep the dose field (via e.Dose) must not Close until they are
// done with it.
func (e *Eval) Close() {
	if e.Dose == nil {
		return
	}
	if a := e.arena; a != nil {
		a.putF64(e.Dose.V)
		a.putBits(e.failOn.Bits)
		a.putBits(e.failOff.Bits)
		a.putWords(e.near)
		a.putF32(e.buf)
	}
	e.Dose, e.failOn, e.failOff, e.near = nil, nil, nil, nil
	e.buf, e.row = nil, nil
	e.tab = edgeTabs{}
	e.memo = [2]tabMemo{}
	e.arena = nil
}

// SetCrossCheck toggles the debug cross-check mode for this evaluator:
// when on, every mutation re-derives the violation state from the dose
// field and from Problem.Evaluate from scratch and panics on any
// mismatch with the maintained state. The MASKFRAC_EVAL_CHECK
// environment variable sets the process-wide default.
func (e *Eval) SetCrossCheck(on bool) { e.check = on }

// Reset replaces the entire configuration with the given shots and
// rebuilds dose and violation state from scratch: O(grid + Σ support
// boxes). Use it to restore a snapshot; single-shot changes should go
// through the incremental mutators instead. Reset clears all L-shot
// pairing and per-shot doses — use ResetPaired to restore a paired
// snapshot.
func (e *Eval) Reset(shots []geom.Rect) {
	clear(e.Dose.V)
	e.Shots = append(e.Shots[:0], shots...)
	e.resetPartners(len(e.Shots))
	e.doses = nil
	for _, s := range e.Shots {
		e.accumulate(s, 1)
	}
	e.rebuildState()
	if e.check {
		e.crossCheck("Reset")
	}
}

// rebuildState derives stats, the failing bitmaps and the near bitmap
// from the current dose field with one full-grid scan, re-anchoring the
// running cost.
func (e *Eval) rebuildState() {
	p := e.P
	rho := p.Params.Rho
	var st Stats
	clear(e.near)
	for k, c := range p.Class {
		v := e.Dose.V[k]
		fOn, fOff := false, false
		switch c {
		case On:
			if v < rho {
				fOn = true
				st.FailOn++
				st.Cost += rho - v
			}
		case Off:
			if v >= rho {
				fOff = true
				st.FailOff++
				st.Cost += v - rho
			}
		}
		e.failOn.Bits[k] = fOn
		e.failOff.Bits[k] = fOff
		if p.isNear(c, v) {
			e.near[k>>6] |= 1 << (k & 63)
		}
	}
	e.stats = st
}

// isNear reports whether a pixel of class c at dose v belongs in the
// near bitmap: On below ρ+τ, or Off at or above ρ−τ.
func (p *Problem) isNear(c Class, v float64) bool {
	switch c {
	case On:
		return v < p.Params.Rho+p.tau
	case Off:
		return v >= p.Params.Rho-p.tau
	}
	return false
}

// setNear sets or clears the near bit of pixel k.
func (e *Eval) setNear(k int, near bool) {
	if near {
		e.near[k>>6] |= 1 << (k & 63)
	} else {
		e.near[k>>6] &^= 1 << (k & 63)
	}
}

// RecomputeStats rebuilds the maintained violation state with a full
// O(grid) scan of the current dose field and returns it — the fallback
// the incremental bookkeeping replaces. It re-anchors the running cost
// (clearing accumulated float rounding); it exists for debugging,
// cross-checks and benchmark baselines. Solvers should call Stats.
func (e *Eval) RecomputeStats() Stats {
	e.rebuildState()
	return e.stats
}

// Add appends shot s at unit dose, accumulates its dose and folds the
// pixels of its support box into the maintained violation state:
// O(support box).
func (e *Eval) Add(s geom.Rect) {
	e.Shots = append(e.Shots, s)
	e.partner = append(e.partner, -1)
	if e.doses != nil {
		e.doses = append(e.doses, 1)
	}
	e.applyShot(s, 1)
	if e.check {
		e.crossCheck("Add")
	}
}

// Remove deletes shot i and subtracts its dose: O(support box).
//
// Index-stability contract: Remove swap-deletes. The last shot moves
// into slot i (shot order is NOT preserved), every other index is
// unchanged, and the list shrinks by one. Callers that hold shot
// indices across a removal must account for the swap: indices other
// than i and len-1 remain valid, the index len-1 becomes invalid, and
// the shot previously at len-1 is now at i. Removing in descending
// index order, or re-deriving indices after each removal, sidesteps the
// issue. UndoRemove is the exact inverse of the swap-delete, restoring
// the original order — but not L-shot pairing: removing a paired shot
// first splits its pair (restoring the overlap dose), and UndoRemove
// brings both shots back as independent rectangles. Nor does it know
// the removed shot's dose: s returns at unit dose.
func (e *Eval) Remove(i int) {
	if e.partner[i] >= 0 {
		e.Unpair(i)
	}
	s, d := e.Shots[i], e.ShotDose(i)
	last := len(e.Shots) - 1
	e.Shots[i] = e.Shots[last]
	e.Shots = e.Shots[:last]
	if e.doses != nil {
		e.doses[i] = e.doses[last]
		e.doses = e.doses[:last]
	}
	// swap-delete the partner slot too, redirecting the moved shot's
	// partner (never i itself: i was just unpaired)
	e.partner[i] = e.partner[last]
	e.partner = e.partner[:last]
	if i < last {
		if p := e.partner[i]; p >= 0 {
			e.partner[p] = i
		}
	}
	e.applyShot(s, -d)
	if e.check {
		e.crossCheck("Remove")
	}
}

// UndoRemove reverts an immediately preceding Remove(i) that removed
// shot s, restoring the exact shot order the swap-delete disturbed:
// the displaced last shot returns to the tail and s returns to slot i.
// Cleanup loops use it to speculatively remove a shot, inspect the
// damage, and back out.
func (e *Eval) UndoRemove(i int, s geom.Rect) {
	if i < len(e.Shots) {
		displaced, d := e.Shots[i], e.ShotDose(i)
		e.SetShotDose(i, 1)
		e.SetShot(i, s)
		e.Add(displaced)
		e.SetShotDose(len(e.Shots)-1, d)
	} else {
		// the removed shot was the last one; no swap happened
		e.Add(s)
	}
}

// applyShot commits adding sign × I_s to the dose: sign is +1 or −1 to
// add or remove a unit-dose shot, and carries the dose multiplier (or
// its change) otherwise. The constrained pixels of the shot's support
// box are retired from the maintained stats, the dose update runs
// through the model's separable accumulation, and the pixels are
// restored against the new dose.
func (e *Eval) applyShot(s geom.Rect, sign float64) {
	i0, j0, i1, j1 := e.P.Model.SupportBox(e.P.Grid, s)
	if i1 < i0 || j1 < j0 {
		e.finishMutation(0)
		return
	}
	e.retireSpan(i0, j0, i1, j1)
	e.accumulate(s, sign)
	e.restoreSpan(i0, j0, i1, j1)
	e.finishMutation(2 * (i1 - i0 + 1) * (j1 - j0 + 1))
}

// retireSpan subtracts the cost terms and clears the fail bits of every
// failing pixel in the box, in preparation for a dose change there. The
// bitmaps are the authority on which pixels currently contribute, which
// keeps counts, bits and the running cost in lockstep.
func (e *Eval) retireSpan(i0, j0, i1, j1 int) {
	g := e.P.Grid
	rho := e.P.Params.Rho
	for j := j0; j <= j1; j++ {
		base := j * g.W
		for i := i0; i <= i1; i++ {
			k := base + i
			if e.failOn.Bits[k] {
				e.failOn.Bits[k] = false
				e.stats.FailOn--
				e.stats.Cost -= rho - e.Dose.V[k]
			} else if e.failOff.Bits[k] {
				e.failOff.Bits[k] = false
				e.stats.FailOff--
				e.stats.Cost -= e.Dose.V[k] - rho
			}
		}
	}
}

// restoreSpan re-classifies every constrained pixel in the box against
// the updated dose field, adding back cost terms and fail bits and
// re-deriving near bits.
func (e *Eval) restoreSpan(i0, j0, i1, j1 int) {
	p := e.P
	g := p.Grid
	rho := p.Params.Rho
	for j := j0; j <= j1; j++ {
		base := j * g.W
		for i := i0; i <= i1; i++ {
			k := base + i
			v := e.Dose.V[k]
			switch c := p.Class[k]; c {
			case On:
				if v < rho {
					e.failOn.Bits[k] = true
					e.stats.FailOn++
					e.stats.Cost += rho - v
				}
				e.setNear(k, p.isNear(c, v))
			case Off:
				if v >= rho {
					e.failOff.Bits[k] = true
					e.stats.FailOff++
					e.stats.Cost += v - rho
				}
				e.setNear(k, p.isNear(c, v))
			}
		}
	}
}

// finishMutation updates the effort counters after a committed mutation
// that scanned px pixels and re-anchors the running cost when the
// configuration is feasible (the only state in which the exact cost is
// known without a scan: zero).
func (e *Eval) finishMutation(px int) {
	e.Mutations++
	e.PixelsMutated += int64(px)
	if e.stats.FailOn == 0 && e.stats.FailOff == 0 {
		e.stats.Cost = 0
	}
	if e.holding {
		e.heldMut = append(e.heldMut, px)
		return
	}
	publishMutation(px)
}

// publishMutation adds one committed mutation of px pixels to the
// process-wide counters and reports it to the observer.
func publishMutation(px int) {
	evalMutationsTotal.Add(1)
	evalPixelsMutatedTotal.Add(int64(px))
	if obs, ok := mutationObserver.Load().(mutObs); ok && obs.fn != nil {
		obs.fn(px)
	}
}

// countScored adds a scored candidate's strip pixels, skipped of them
// proved unchanged without a visit, to the evaluator's counters and,
// unless it holds its effort, to the process-wide ones.
func (e *Eval) countScored(px, skipped int) {
	e.PixelsScored += int64(px)
	e.PixelsSkipped += int64(skipped)
	if !e.holding {
		evalPixelsScoredTotal.Add(int64(px))
		evalPixelsSkippedTotal.Add(int64(skipped))
	}
}

// HoldEffort makes a fresh evaluator keep the effort it spends
// (mutations, mutated, scored and skipped pixels) out of the
// process-wide counters and the mutation observer until ReleaseEffort
// says whether it counts. Speculative work uses it — a trial that may
// turn out to be one the sequential algorithm never runs — so the
// process-wide counters stay those of the sequential run. The
// evaluator's own counters count as usual and, since they start at
// zero, are exactly the held effort: HoldEffort panics on an evaluator
// that has already counted some.
func (e *Eval) HoldEffort() {
	if e.Mutations != 0 || e.PixelsScored != 0 || e.PixelsSkipped != 0 {
		panic("cover: HoldEffort on an evaluator that has already counted effort")
	}
	e.holding = true
}

// ReleaseEffort ends HoldEffort. With publish the held effort goes to
// the process-wide counters and the mutation observer as if it had
// never been held; without, its scored and mutated pixels go to the
// PixelsSpeculative counter instead. It may be called after Close and
// does nothing on an evaluator that holds no effort.
func (e *Eval) ReleaseEffort(publish bool) {
	if !e.holding {
		return
	}
	e.holding = false
	held := e.heldMut
	e.heldMut = nil
	if !publish {
		evalPixelsSpecTotal.Add(e.PixelsMutated + e.PixelsScored)
		return
	}
	for _, px := range held {
		publishMutation(px)
	}
	evalPixelsScoredTotal.Add(e.PixelsScored)
	evalPixelsSkippedTotal.Add(e.PixelsSkipped)
}

// SetShot replaces shot i with s, updating dose and violation state by
// scanning only the strips around the moved edges: O(changed strips),
// the same region DeltaCost scores. When shot i is one arm of an
// L-shot and the move changes the pair's overlap rectangle, the
// overlap correction commits as a second strip scan, so moving an arm
// stays O(changed strips + overlap support).
func (e *Eval) SetShot(i int, s geom.Rect) {
	old := e.Shots[i]
	if old == s {
		return
	}
	e.Shots[i] = s
	e.moveScan(old, s, e.ShotDose(i), true)
	if j := e.partner[i]; j >= 0 {
		oOld := pairOverlap(old, e.Shots[j])
		oNew := pairOverlap(s, e.Shots[j])
		if oOld != oNew {
			// the pair's dose carries −I_overlap: re-point the negative
			// term from the old overlap to the new one
			switch {
			case oOld == (geom.Rect{}):
				e.applyShot(oNew, -1)
			case oNew == (geom.Rect{}):
				e.applyShot(oOld, 1)
			default:
				e.moveScan(oNew, oOld, 1, true) // dose += I_oOld − I_oNew
			}
		}
	}
	if e.check {
		e.crossCheck("SetShot")
	}
}

// ApplyDelta commits the replacement of shot i by repl whose cost
// change was already scored as delta via DeltaCost(i, repl). It is the
// score-then-commit fast path for refinement loops: the commit scans
// the same strips the scoring pass did and nothing else. In cross-check
// mode the realized cost change is asserted against delta.
func (e *Eval) ApplyDelta(i int, repl geom.Rect, delta float64) {
	if !e.check {
		e.SetShot(i, repl)
		return
	}
	before := e.stats.Cost
	e.SetShot(i, repl)
	// the feasible case re-anchors cost to 0, legitimately breaking
	// before+delta == after; only assert while violations remain
	if e.stats.Fail() > 0 {
		got := e.stats.Cost - before
		if math.Abs(got-delta) > 1e-6+1e-9*math.Abs(before) {
			panic(fmt.Sprintf("cover: ApplyDelta mismatch: scored %g, realized %g", delta, got))
		}
	}
}

// Stats returns the maintained violation statistics in O(1).
func (e *Eval) Stats() Stats {
	e.Evals++
	return e.stats
}

// SnapshotShots returns a copy of the current shot list.
func (e *Eval) SnapshotShots() []geom.Rect {
	out := make([]geom.Rect, len(e.Shots))
	copy(out, e.Shots)
	return out
}

// crossCheck asserts the maintained state against two references: an
// exact scan of the evaluator's own dose field (counts, failing bitmaps
// and the near bitmap must match exactly, cost up to accumulated
// rounding) and a from-scratch
// Problem.Evaluate, whose dose accumulates in shot order and therefore
// also matches cost only up to rounding.
func (e *Eval) crossCheck(op string) {
	p := e.P
	rho := p.Params.Rho
	var own Stats
	for k, c := range p.Class {
		v := e.Dose.V[k]
		fOn, fOff := false, false
		switch c {
		case On:
			if v < rho {
				fOn = true
				own.FailOn++
				own.Cost += rho - v
			}
		case Off:
			if v >= rho {
				fOff = true
				own.FailOff++
				own.Cost += v - rho
			}
		}
		if fOn != e.failOn.Bits[k] || fOff != e.failOff.Bits[k] {
			panic(fmt.Sprintf("cover: %s cross-check: bitmap mismatch at pixel %d", op, k))
		}
		if near := e.near[k>>6]>>(k&63)&1 == 1; near != p.isNear(c, v) {
			panic(fmt.Sprintf("cover: %s cross-check: near bitmap mismatch at pixel %d (class %d dose %g)", op, k, c, v))
		}
	}
	const tol = 1e-6
	if own.FailOn != e.stats.FailOn || own.FailOff != e.stats.FailOff ||
		math.Abs(own.Cost-e.stats.Cost) > tol {
		panic(fmt.Sprintf("cover: %s cross-check: maintained %+v != dose scan %+v", op, e.stats, own))
	}
	scratch := p.evaluate(e.Shots, e.Pairs(), e.doses)
	if scratch.FailOn != e.stats.FailOn || scratch.FailOff != e.stats.FailOff ||
		math.Abs(scratch.Cost-e.stats.Cost) > tol {
		panic(fmt.Sprintf("cover: %s cross-check: maintained %+v != from-scratch %+v", op, e.stats, scratch))
	}
}

// DeltaCost returns the change in Eq. 5 cost if shot i were replaced by
// repl, without modifying the evaluator. The computation is local: only
// pixels whose dose changes (the union of the strips around moved edges)
// are visited, which makes candidate scoring during shot refinement
// cheap (paper §4.1). Commit the move afterwards with ApplyDelta.
//
// For a paired shot whose replacement changes the L-shot's overlap
// rectangle, the shot term and the overlap correction are scored in a
// single multi-term pass (termScan): the Eq. 5 pixel cost is piecewise
// linear with a breakpoint at ρ, so scoring the two dose terms
// separately and summing would be wrong wherever their strips overlap.
func (e *Eval) DeltaCost(i int, repl geom.Rect) float64 {
	old := e.Shots[i]
	if old == repl {
		return 0
	}
	e.Evals++
	if j := e.partner[i]; j >= 0 {
		oOld := pairOverlap(old, e.Shots[j])
		oNew := pairOverlap(repl, e.Shots[j])
		if oOld != oNew {
			return e.pairedMoveDelta(old, repl, oOld, oNew)
		}
	}
	return e.moveScan(old, repl, e.ShotDose(i), false)
}

// edgeTables sizes the scratch tables for nc components over an
// nx × ny union box, reusing the evaluator's backing buffer (grown
// through the arena so a closed evaluator donates it back).
func (e *Eval) edgeTables(nc, nx, ny int) *edgeTabs {
	buf := e.scratch(2 * nc * (nx + ny))
	for c := 0; c < nc; c++ {
		e.tab.exOld[c] = carve(&buf, nx)
		e.tab.exNew[c] = carve(&buf, nx)
		e.tab.eyOld[c] = carve(&buf, ny)
		e.tab.eyNew[c] = carve(&buf, ny)
	}
	return &e.tab
}

// bufLayout returns the sizes of the two fixed regions at the front of
// Eval.buf, the evaluator's one float32 buffer: the accumulation
// scratch of AccumulateShotBuf (a support box's width plus height
// never exceeds the grid's), then the memo (every component's table
// over a whole grid row and column). The edge tables of the move being
// scored follow them; see scratch.
func (e *Eval) bufLayout() (acc, memo int) {
	g := e.P.Grid
	return g.W + g.H, e.P.Model.Components() * (g.W + g.H)
}

// accumulate adds sign × I_s to the dose field through the model's
// separable accumulation, on the scratch region of Eval.buf.
func (e *Eval) accumulate(s geom.Rect, sign float64) {
	acc, _ := e.bufLayout()
	e.P.Model.AccumulateShotBuf(e.Dose, s, sign, e.buf[:acc:acc])
}

// scratch returns n values of Eval.buf past its fixed regions, growing
// the buffer through the arena so a closed evaluator donates it back.
// Growing drops the memo (its tables lived in the old buffer).
func (e *Eval) scratch(n int) []float32 {
	acc, memo := e.bufLayout()
	fixed := acc + memo
	if cap(e.buf) < fixed+n {
		if a := e.arena; a != nil {
			a.putF32(e.buf)
			e.buf = a.getF32(fixed + n)
		} else {
			e.buf = make([]float32, fixed+n)
		}
		e.memo = [2]tabMemo{}
	}
	return e.buf[fixed : fixed+n]
}

// memoTables returns the per-component edge tables of the edge pair
// (a, b) over pixel indices start … start+n−1 of axis ax (0 = x,
// 1 = y), refilling them only when the key differs from the axis's
// last fill. The tables live in the memo region at the front of
// Eval.buf, which the caller has sized through scratch; they stay
// valid until the next memoTables call on the same axis or the next
// growth of the buffer.
func (e *Eval) memoTables(ax int, a, b float64, start, n int) *[2][]float32 {
	m := &e.memo[ax]
	if m.valid && m.a == a && m.b == b && m.start == start && m.n == n {
		return &m.tab
	}
	p := e.P
	g := p.Grid
	model := p.Model
	nc := model.Components()
	acc, memo := e.bufLayout()
	region := e.buf[acc : acc+memo]
	t0, buf := g.X0, region[:nc*g.W]
	if ax == 1 {
		t0, buf = g.Y0, region[nc*g.W:]
	}
	for c := 0; c < nc; c++ {
		m.tab[c] = carve(&buf, n)
		model.EdgeProfiles32(m.tab[c], c, t0, g.Pitch, start, a, b)
	}
	m.a, m.b, m.start, m.n, m.valid = a, b, start, n, true
	return &m.tab
}

// carve splits the first n values off *buf.
func carve(buf *[]float32, n int) []float32 {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// ShotRows streams the dose a prospective unit-dose shot s would add,
// one grid row of its support box at a time: fn(j, i0, row) receives
// row j with row[i] the intensity at pixel (i0+i, j). The values come
// from the same float32 strip tables a committed Add accumulates, held
// with the row in the evaluator's reused buffers, so candidate scorers
// allocate nothing per candidate. fn must not retain row; the
// evaluator is not modified.
func (e *Eval) ShotRows(s geom.Rect, fn func(j, i0 int, row []float64)) {
	p := e.P
	g := p.Grid
	model := p.Model
	i0, j0, i1, j1 := model.SupportBox(g, s)
	if i1 < i0 || j1 < j0 {
		return
	}
	nx := i1 - i0 + 1
	nc := model.Components()
	tab := e.edgeTables(nc, nx, j1-j0+1)
	for c := 0; c < nc; c++ {
		model.EdgeProfiles32(tab.exNew[c], c, g.X0, g.Pitch, i0, s.X0, s.X1)
		model.EdgeProfiles32(tab.eyNew[c], c, g.Y0, g.Pitch, j0, s.Y0, s.Y1)
	}
	if cap(e.row) < nx {
		e.row = make([]float64, nx)
	}
	row := e.row[:nx]
	for j := j0; j <= j1; j++ {
		for c := 0; c < nc; c++ {
			rowW := model.Weight(c) * float64(tab.eyNew[c][j-j0])
			ex := tab.exNew[c][:nx]
			if c == 0 {
				for i := range row {
					row[i] = rowW * float64(ex[i])
				}
			} else {
				for i := range row {
					row[i] += rowW * float64(ex[i])
				}
			}
		}
		fn(j, i0, row)
	}
}

// moveScan is the shared strip scanner behind DeltaCost and SetShot: it
// visits the pixels whose dose the replacement old → repl of a shot at
// multiplier dose changes — the changed-interval strips intersected
// with the union support box — and either scores the Eq. 5 cost change
// (commit=false, don't-care band skipped) or commits it (commit=true,
// dose written and the maintained state retired-and-restored per
// pixel; band pixels still get their dose update). Pixels outside the
// strips keep their dose bit-for-bit: beyond the padded interval both
// edge profiles clamp to identical values, so dI is exactly zero there.
//
// A single-axis move fills the changed axis's edge tables over the
// strip only, and takes the unchanged axis's from the evaluator's memo
// (old and new alias: the strip kernel's values depend on the absolute
// index alone, so they are the bits a separate fill would give; see
// memoTables). Scoring such a move visits only the near bitmap's pixels
// when the move is small enough; see scoreNear.
func (e *Eval) moveScan(old, repl geom.Rect, dose float64, commit bool) float64 {
	p := e.P
	g := p.Grid
	model := p.Model
	sup := model.Support()

	// x-interval and y-interval where the separable profiles differ
	xLo, xHi, xChanged := changedInterval(old.X0, old.X1, repl.X0, repl.X1, sup)
	yLo, yHi, yChanged := changedInterval(old.Y0, old.Y1, repl.Y0, repl.Y1, sup)
	if !xChanged && !yChanged {
		if commit {
			e.finishMutation(0)
		}
		return 0
	}

	// overall support box (union of both shots' support)
	ubox := old.Union(repl).Inset(-sup)
	ui0, uj0 := g.PixelOf(geom.Pt(ubox.X0, ubox.Y0))
	ui1, uj1 := g.PixelOf(geom.Pt(ubox.X1, ubox.Y1))
	s := strip{i0: g.ClampX(ui0), j0: g.ClampY(uj0), i1: g.ClampX(ui1), j1: g.ClampY(uj1)}
	switch {
	case xChanged && yChanged:
		// general move: scan the whole union support box
	case xChanged:
		// vertical strip only
		i0, _ := g.PixelOf(geom.Pt(xLo, 0))
		i1, _ := g.PixelOf(geom.Pt(xHi, 0))
		s.i0, s.i1 = max(g.ClampX(i0), s.i0), min(g.ClampX(i1), s.i1)
	default:
		// horizontal strip only
		_, j0 := g.PixelOf(geom.Pt(0, yLo))
		_, j1 := g.PixelOf(geom.Pt(0, yHi))
		s.j0, s.j1 = max(g.ClampY(j0), s.j0), min(g.ClampY(j1), s.j1)
	}
	if s.i1 < s.i0 || s.j1 < s.j0 {
		if commit {
			e.finishMutation(0)
		}
		return 0
	}
	px := (s.i1 - s.i0 + 1) * (s.j1 - s.j0 + 1)

	// per-component 1D edge tables over the window: O(W+H) float32
	// strip-kernel fills up front make the area scans pure widening
	// multiply-adds (float32 loads, float64 accumulation)
	s.nc = model.Components()
	nx, ny := s.i1-s.i0+1, s.j1-s.j0+1
	tab := e.edgeTables(s.nc, nx, ny)
	var fx, fy *[2][]float32 // the unchanged axis's memoized tables
	if !xChanged {
		fx = e.memoTables(0, old.X0, old.X1, s.i0, nx)
	}
	if !yChanged {
		fy = e.memoTables(1, old.Y0, old.Y1, s.j0, ny)
	}
	for c := 0; c < s.nc; c++ {
		if xChanged {
			model.EdgeProfiles32(tab.exOld[c], c, g.X0, g.Pitch, s.i0, old.X0, old.X1)
			model.EdgeProfiles32(tab.exNew[c], c, g.X0, g.Pitch, s.i0, repl.X0, repl.X1)
		} else {
			tab.exOld[c], tab.exNew[c] = fx[c], fx[c]
		}
		if yChanged {
			model.EdgeProfiles32(tab.eyOld[c], c, g.Y0, g.Pitch, s.j0, old.Y0, old.Y1)
			model.EdgeProfiles32(tab.eyNew[c], c, g.Y0, g.Pitch, s.j0, repl.Y0, repl.Y1)
		} else {
			tab.eyOld[c], tab.eyNew[c] = fy[c], fy[c]
		}
		// the dose folds into the component weights: one multiply per
		// call, and exactly the unit-dose weights when dose is 1
		s.w[c] = dose * model.Weight(c)
	}

	if commit {
		e.commitStrip(s)
		e.finishMutation(px)
		return 0
	}
	var delta float64
	skipped := 0
	if xChanged != yChanged && !e.noPrune && e.moveBound(s, xChanged) <= p.tau/2 {
		var visited int
		delta, visited = e.scoreNear(s)
		skipped = px - visited
	} else {
		delta = e.scoreStrip(s)
	}
	e.countScored(px, skipped)
	return delta
}

// strip is one move's scan window (inclusive pixel box) with its
// dose-weighted component weights; the edge tables over the window sit
// in Eval.tab, indexed from (i0, j0).
type strip struct {
	i0, j0, i1, j1 int
	nc             int
	w              [2]float64
}

// rowFactors returns row jo's dose-weighted old and new y edge
// factors of both components (zero for an absent second one).
func (s *strip) rowFactors(tab *edgeTabs, jo int) (o0, n0, o1, n1 float64) {
	o0 = s.w[0] * float64(tab.eyOld[0][jo])
	n0 = s.w[0] * float64(tab.eyNew[0][jo])
	if s.nc == 2 {
		o1 = s.w[1] * float64(tab.eyOld[1][jo])
		n1 = s.w[1] * float64(tab.eyNew[1][jo])
	}
	return o0, n0, o1, n1
}

// moveBound bounds |dI| over a single-axis move's strip:
// Σ_c |w_c| · max|ΔE_c| along the changed axis · max|E_c| along the
// unchanged one.
func (e *Eval) moveBound(s strip, xChanged bool) float64 {
	tab := &e.tab
	b := 0.0
	for c := 0; c < s.nc; c++ {
		from, to, fixed := tab.exOld[c], tab.exNew[c], tab.eyOld[c]
		if !xChanged {
			from, to, fixed = tab.eyOld[c], tab.eyNew[c], tab.exOld[c]
		}
		dMax, fMax := 0.0, 0.0
		for i, v := range from {
			dMax = max(dMax, math.Abs(float64(to[i])-float64(v)))
		}
		for _, v := range fixed {
			fMax = max(fMax, math.Abs(float64(v)))
		}
		b += math.Abs(s.w[c]) * dMax * fMax
	}
	return b
}

// scoreStrip scores the Eq. 5 cost change of a move over its whole
// strip, row-major, skipping the don't-care band.
func (e *Eval) scoreStrip(s strip) float64 {
	p := e.P
	g := p.Grid
	tab := &e.tab
	exO0, exN0 := tab.exOld[0], tab.exNew[0]
	exO1, exN1 := tab.exOld[1], tab.exNew[1]
	delta := 0.0
	for j := s.j0; j <= s.j1; j++ {
		base := j * g.W
		// hoist the weighted row factors; outside the changed strips
		// eyOld == eyNew and exOld == exNew bit-for-bit (the strip
		// kernel's exactness contract), so dI is exactly zero there
		eyO0, eyN0, eyO1, eyN1 := s.rowFactors(tab, j-s.j0)
		for i := s.i0; i <= s.i1; i++ {
			k := base + i
			if p.Class[k] == Band {
				continue
			}
			io := i - s.i0
			dI := float64(exN0[io])*eyN0 - float64(exO0[io])*eyO0
			if s.nc == 2 {
				dI += float64(exN1[io])*eyN1 - float64(exO1[io])*eyO1
			}
			if dI == 0 {
				continue
			}
			v := e.Dose.V[k]
			delta += p.pixelCost(k, v+dI) - p.pixelCost(k, v)
		}
	}
	return delta
}

// scoreNear is scoreStrip restricted to the near bitmap's pixels, for
// a move with |dI| ≤ τ/2 everywhere (moveBound): it walks each strip
// row's set bits and returns the cost change plus the number of pixels
// visited. It is exact, bit for bit. An unset On pixel has v ≥ ρ+τ
// and an unset Off pixel v < ρ−τ, so both pixelCost terms of such a
// pixel are 0 before and after the move and scoreStrip adds exactly
// +0 for it; the set pixels are summed in scoreStrip's row-major order
// with scoreStrip's arithmetic, and Band pixels are never set.
func (e *Eval) scoreNear(s strip) (delta float64, visited int) {
	p := e.P
	g := p.Grid
	tab := &e.tab
	exO0, exN0 := tab.exOld[0], tab.exNew[0]
	exO1, exN1 := tab.exOld[1], tab.exNew[1]
	for j := s.j0; j <= s.j1; j++ {
		base := j * g.W
		eyO0, eyN0, eyO1, eyN1 := s.rowFactors(tab, j-s.j0)
		lo, hi := base+s.i0, base+s.i1
		for w := lo >> 6; w <= hi>>6; w++ {
			word := e.near[w]
			if w == lo>>6 {
				word &= ^uint64(0) << (lo & 63)
			}
			if w == hi>>6 {
				word &= ^uint64(0) >> (63 - hi&63)
			}
			for ; word != 0; word &= word - 1 {
				k := w<<6 | bits.TrailingZeros64(word)
				visited++
				io := k - lo
				dI := float64(exN0[io])*eyN0 - float64(exO0[io])*eyO0
				if s.nc == 2 {
					dI += float64(exN1[io])*eyN1 - float64(exO1[io])*eyO1
				}
				if dI == 0 {
					continue
				}
				v := e.Dose.V[k]
				delta += p.pixelCost(k, v+dI) - p.pixelCost(k, v)
			}
		}
	}
	return delta, visited
}

// commitStrip writes a move's dose change over its strip, retiring and
// restoring each changed constrained pixel's cost term, fail bit and
// near bit.
func (e *Eval) commitStrip(s strip) {
	p := e.P
	g := p.Grid
	tab := &e.tab
	rho := p.Params.Rho
	exO0, exN0 := tab.exOld[0], tab.exNew[0]
	exO1, exN1 := tab.exOld[1], tab.exNew[1]
	for j := s.j0; j <= s.j1; j++ {
		base := j * g.W
		eyO0, eyN0, eyO1, eyN1 := s.rowFactors(tab, j-s.j0)
		for i := s.i0; i <= s.i1; i++ {
			io := i - s.i0
			dI := float64(exN0[io])*eyN0 - float64(exO0[io])*eyO0
			if s.nc == 2 {
				dI += float64(exN1[io])*eyN1 - float64(exO1[io])*eyO1
			}
			if dI == 0 {
				continue
			}
			k := base + i
			v := e.Dose.V[k]
			nv := v + dI
			e.Dose.V[k] = nv
			switch cls := p.Class[k]; cls {
			case On:
				if e.failOn.Bits[k] {
					e.failOn.Bits[k] = false
					e.stats.FailOn--
					e.stats.Cost -= rho - v
				}
				if nv < rho {
					e.failOn.Bits[k] = true
					e.stats.FailOn++
					e.stats.Cost += rho - nv
				}
				e.setNear(k, p.isNear(cls, nv))
			case Off:
				if e.failOff.Bits[k] {
					e.failOff.Bits[k] = false
					e.stats.FailOff--
					e.stats.Cost -= v - rho
				}
				if nv >= rho {
					e.failOff.Bits[k] = true
					e.stats.FailOff++
					e.stats.Cost += nv - rho
				}
				e.setNear(k, p.isNear(cls, nv))
			}
		}
	}
}

// changedInterval returns the coordinate interval over which the 1D
// edge profile of [a0,a1] differs from that of [b0,b1], padded by the
// kernel support.
func changedInterval(a0, a1, b0, b1, sup float64) (lo, hi float64, changed bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	if a0 != b0 {
		lo = math.Min(a0, b0) - sup
		hi = math.Max(a0, b0) + sup
	}
	if a1 != b1 {
		lo = math.Min(lo, math.Min(a1, b1)-sup)
		hi = math.Max(hi, math.Max(a1, b1)+sup)
	}
	return lo, hi, hi >= lo
}

// FailingBitmaps returns bitmaps of the failing Pon and Poff pixels of
// the current configuration, used by the shot addition/removal steps
// (paper §4.3–4.4). The bitmaps are the evaluator's live maintained
// state, returned in O(1): they are shared views that the next mutation
// updates in place, so callers must treat them as read-only and must
// not hold them across mutations (re-fetch instead — the call is free).
func (e *Eval) FailingBitmaps() (failOn, failOff *raster.Bitmap) {
	return e.failOn, e.failOff
}
