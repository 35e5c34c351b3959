package vdose

import (
	"math"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/mbf"
	"maskfrac/internal/geom"
)

func problem(t *testing.T, pg geom.Polygon) *cover.Problem {
	t.Helper()
	p, err := cover.NewProblem(pg, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func squareP(side float64) geom.Polygon {
	return geom.Polygon{geom.Pt(0, 0), geom.Pt(side, 0), geom.Pt(side, side), geom.Pt(0, side)}
}

func TestOptimizeFixesUnderdose(t *testing.T) {
	// the exact-target shot underdoses corner pixels at unit dose;
	// raising the dose slightly fixes them without breaking Poff
	p := problem(t, squareP(60))
	res := Optimize(p, []geom.Rect{{X0: 0, Y0: 0, X1: 60, Y1: 60}}, Options{})
	if !res.Stats.Feasible() {
		t.Errorf("dose optimization left violations: %+v", res.Stats)
	}
	if res.Shots[0].Dose <= 1 {
		t.Errorf("dose not raised: %v", res.Shots[0].Dose)
	}
}

func TestOptimizeRespectsBounds(t *testing.T) {
	p := problem(t, squareP(60))
	opt := Options{MinDose: 0.9, MaxDose: 1.1, Step: 0.05}
	res := Optimize(p, []geom.Rect{{X0: 0, Y0: 0, X1: 60, Y1: 60}}, opt)
	for _, s := range res.Shots {
		if s.Dose < opt.MinDose-1e-9 || s.Dose > opt.MaxDose+1e-9 {
			t.Errorf("dose %v outside [%v, %v]", s.Dose, opt.MinDose, opt.MaxDose)
		}
	}
}

func TestEvalIncrementalConsistency(t *testing.T) {
	p := problem(t, squareP(60))
	e := newEval(p, []Shot{
		{Rect: geom.Rect{X0: 0, Y0: 0, X1: 35, Y1: 60}, Dose: 1.2},
		{Rect: geom.Rect{X0: 30, Y0: 0, X1: 60, Y1: 60}, Dose: 0.8},
	})
	defer e.Close()
	e.SetShotDose(0, 0.9)
	e.Remove(1)
	// rebuild from scratch and compare cost
	fresh := newEval(p, shotsOf(e))
	defer fresh.Close()
	a, b := e.Stats(), fresh.Stats()
	if math.Abs(a.Cost-b.Cost) > 1e-9 || a.Fail() != b.Fail() {
		t.Errorf("incremental %+v vs fresh %+v", a, b)
	}
}

func TestDoseDeltaMatchesRecompute(t *testing.T) {
	p := problem(t, squareP(60))
	e := newEval(p, []Shot{{Rect: geom.Rect{X0: 0, Y0: 0, X1: 60, Y1: 60}, Dose: 1}})
	defer e.Close()
	before := e.Stats().Cost
	delta := e.ShotDoseDelta(0, 1.1)
	e.SetShotDose(0, 1.1)
	after := e.Stats().Cost
	if math.Abs((after-before)-delta) > 1e-9 {
		t.Errorf("delta %v vs actual %v", delta, after-before)
	}
}

func TestReduceDeletesRedundantShot(t *testing.T) {
	p := problem(t, squareP(60))
	rects := []geom.Rect{
		{X0: -0.5, Y0: -0.5, X1: 60.5, Y1: 60.5},
		{X0: 15, Y0: 15, X1: 45, Y1: 45}, // redundant at any dose
	}
	res := Optimize(p, rects, Options{})
	red := Reduce(p, res, Options{})
	if red.ShotCount() != 1 {
		t.Errorf("redundant shot kept: %d shots", red.ShotCount())
	}
	if red.Stats.Fail() > res.Stats.Fail() {
		t.Errorf("reduce made things worse: %+v", red.Stats)
	}
}

func TestVariableDoseNeverWorseThanFixed(t *testing.T) {
	// on an ILT-ish L-shape, dose optimization of the paper-method
	// solution must not increase violations, and Reduce must not
	// increase the shot count
	p := problem(t, geom.Polygon{
		geom.Pt(0, 0), geom.Pt(120, 0), geom.Pt(120, 50),
		geom.Pt(50, 50), geom.Pt(50, 120), geom.Pt(0, 120),
	})
	fixed := mbf.Fracture(p, mbf.Options{})
	res := Optimize(p, fixed.Shots, Options{})
	if res.Stats.Fail() > fixed.Stats.Fail() {
		t.Errorf("optimization increased violations: %d -> %d", fixed.Stats.Fail(), res.Stats.Fail())
	}
	red := Reduce(p, res, Options{})
	if red.ShotCount() > res.ShotCount() {
		t.Errorf("reduce grew the shot count: %d -> %d", res.ShotCount(), red.ShotCount())
	}
	if red.Stats.Fail() > res.Stats.Fail() {
		t.Errorf("reduce increased violations: %+v", red.Stats)
	}
}

func TestShotHelpers(t *testing.T) {
	r := &Result{Shots: []Shot{{Rect: geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, Dose: 1.2}}}
	if r.ShotCount() != 1 {
		t.Errorf("ShotCount = %d", r.ShotCount())
	}
}
