package fixup

import (
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
)

func square(t *testing.T, side float64) *cover.Problem {
	t.Helper()
	pg := geom.Polygon{geom.Pt(0, 0), geom.Pt(side, 0), geom.Pt(side, side), geom.Pt(0, side)}
	p, err := cover.NewProblem(pg, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGreedyCoverCoversSquare(t *testing.T) {
	p := square(t, 60)
	e := cover.NewEval(p, nil)
	cands := []geom.Rect{
		{X0: -0.5, Y0: -0.5, X1: 60.5, Y1: 60.5}, // the right answer
		{X0: 0, Y0: 0, X1: 20, Y1: 20},           // partial
	}
	GreedyCover(p, e, cands, 4, 10)
	if st := e.Stats(); st.FailOn != 0 {
		t.Errorf("square not covered: %+v", st)
	}
	if len(e.Shots) != 1 {
		t.Errorf("greedy picked %d shots, want 1", len(e.Shots))
	}
}

func TestGreedyCoverRespectsCap(t *testing.T) {
	p := square(t, 60)
	e := cover.NewEval(p, nil)
	cands := []geom.Rect{{X0: 0, Y0: 0, X1: 12, Y1: 12}}
	GreedyCover(p, e, cands, 4, 1)
	if len(e.Shots) > 1 {
		t.Errorf("cap ignored: %d shots", len(e.Shots))
	}
}

func TestGreedyCoverStopsWhenNothingHelps(t *testing.T) {
	p := square(t, 60)
	e := cover.NewEval(p, nil)
	// only a far-outside candidate: fixes nothing
	GreedyCover(p, e, []geom.Rect{{X0: 200, Y0: 200, X1: 260, Y1: 260}}, 4, 10)
	if len(e.Shots) != 0 {
		t.Errorf("useless candidate added: %v", e.Shots)
	}
}

func TestScoreCandidate(t *testing.T) {
	p := square(t, 60)
	e := cover.NewEval(p, nil)
	failOn, _ := e.FailingBitmaps()
	good := ScoreCandidate(p, e, failOn, geom.Rect{X0: -0.5, Y0: -0.5, X1: 60.5, Y1: 60.5}, 4)
	if good <= 0 {
		t.Errorf("covering candidate scored %v", good)
	}
	// grossly oversized shot breaks many off pixels
	bad := ScoreCandidate(p, e, failOn, geom.Rect{X0: -40, Y0: -40, X1: 100, Y1: 100}, 4)
	if bad >= good {
		t.Errorf("oversized shot (%v) scored no worse than exact (%v)", bad, good)
	}
}

func TestPatchCompletesCover(t *testing.T) {
	p := square(t, 60)
	// left half covered; Patch must finish the right half
	e := cover.NewEval(p, []geom.Rect{{X0: -0.5, Y0: -0.5, X1: 30, Y1: 60.5}})
	Patch(p, e, 20)
	if st := e.Stats(); st.FailOn != 0 {
		t.Errorf("patch left FailOn=%d", st.FailOn)
	}
}

func TestPatchRespectsMinSize(t *testing.T) {
	p := square(t, 60)
	e := cover.NewEval(p, []geom.Rect{{X0: -0.5, Y0: -0.5, X1: 57, Y1: 60.5}})
	Patch(p, e, 20)
	for _, s := range e.Shots {
		if !p.MinSizeOK(s) {
			t.Errorf("patch shot %v below Lmin", s)
		}
	}
}

func TestEdgeAdjustImprovesOverdose(t *testing.T) {
	p := square(t, 60)
	// a shot sticking out on the right: overdose outside
	e := cover.NewEval(p, []geom.Rect{{X0: -0.5, Y0: -0.5, X1: 70, Y1: 60.5}})
	before := e.Stats()
	EdgeAdjust(p, e, 60)
	after := e.Stats()
	if after.Fail() >= before.Fail() {
		t.Errorf("EdgeAdjust did not help: %d -> %d", before.Fail(), after.Fail())
	}
	if after.Fail() != 0 {
		t.Errorf("simple overhang not fully repaired: %+v", after)
	}
}

func TestEdgeAdjustKeepsBest(t *testing.T) {
	// already optimal: EdgeAdjust must not make it worse
	p := square(t, 60)
	e := cover.NewEval(p, []geom.Rect{{X0: -0.5, Y0: -0.5, X1: 60.5, Y1: 60.5}})
	EdgeAdjust(p, e, 30)
	if st := e.Stats(); !st.Feasible() {
		t.Errorf("EdgeAdjust broke a feasible solution: %+v", st)
	}
}

// TestEdgeAdjustKeepsPairsAndDoses runs EdgeAdjust on paired, dosed
// evaluators: an L target covered by two arms paired into one L-shot,
// plus a stray shot at half dose. EdgeAdjust must return with the pair
// and the dose intact, the pair still an L, and the maintained state
// equal to a from-scratch evaluation of shots, pairs and doses (the
// cross-check asserts that after every mutation, the restore
// included). In the first case an unchecked arm move breaks the L; in
// the second the best configuration is an earlier sweep's, so
// EdgeAdjust restores it.
func TestEdgeAdjustKeepsPairsAndDoses(t *testing.T) {
	pg := geom.Polygon{
		geom.Pt(0, 0), geom.Pt(60, 0), geom.Pt(60, 20),
		geom.Pt(20, 20), geom.Pt(20, 60), geom.Pt(0, 60),
	}
	p, err := cover.NewProblem(pg, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, shots := range [][]geom.Rect{
		{{X0: 3, Y0: -1, X1: 58, Y1: 17}, {X0: 3, Y0: 16, X1: 21, Y1: 60}, {X0: 32, Y0: 31, X1: 43, Y1: 46}},
		{{X0: 2, Y0: 1, X1: 59, Y1: 23}, {X0: 2, Y0: 23, X1: 21, Y1: 63}, {X0: 29, Y0: 28, X1: 42, Y1: 45}},
	} {
		e := cover.NewEval(p, shots)
		e.SetCrossCheck(true)
		e.Pair(0, 1)
		e.SetShotDose(2, 0.5)
		EdgeAdjust(p, e, 30)
		if e.Partner(0) != 1 || e.PairCount() != 1 {
			t.Fatalf("from %v: pairing lost: partner(0) = %d, %d pairs", shots, e.Partner(0), e.PairCount())
		}
		if !cover.UnionIsLShot(e.Shots[0], e.Shots[1]) {
			t.Errorf("from %v: arms %v and %v no longer form an L", shots, e.Shots[0], e.Shots[1])
		}
		if d := e.ShotDose(2); d != 0.5 {
			t.Errorf("from %v: dose of shot 2 is %g, want 0.5", shots, d)
		}
		e.Close()
	}
}
