// Package vdose implements the variable-dose extension of model-based
// mask fracturing (the paper's reference [18], Galler et al., "Modified
// dose correction strategy for better pattern contrast"): each shot
// carries an individual dose multiplier instead of the fixed unit dose.
// The paper's method deliberately sticks to fixed dose (no tool change,
// per Elayat et al. [21]); this package provides the extension as an
// optional post-pass: starting from any fixed-dose solution, it
// optimizes per-shot doses greedily and then tries to delete shots
// whose area the survivors can re-cover by raising their doses. Doses
// are scored and committed on cover.Eval's per-shot dose, the same
// incremental evaluator every fixed-dose heuristic uses.
package vdose

import (
	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
)

// Shot is a rectangle exposed at Dose × the nominal dose.
type Shot struct {
	Rect geom.Rect
	Dose float64
}

// Options tune the dose optimizer.
type Options struct {
	MinDose float64 // lowest allowed multiplier (default 0.6)
	MaxDose float64 // highest allowed multiplier (default 1.6)
	Step    float64 // dose adjustment step (default 0.05)
	Sweeps  int     // optimization sweeps (default 40)
}

func (o Options) withDefaults() Options {
	if o.MinDose == 0 {
		o.MinDose = 0.6
	}
	if o.MaxDose == 0 {
		o.MaxDose = 1.6
	}
	if o.Step == 0 {
		o.Step = 0.05
	}
	if o.Sweeps == 0 {
		o.Sweeps = 40
	}
	return o
}

// Result is a variable-dose fracturing solution.
type Result struct {
	Shots []Shot
	Stats cover.Stats
}

// ShotCount returns the number of shots.
func (r *Result) ShotCount() int { return len(r.Shots) }

// newEval returns an evaluator holding shots at their doses.
func newEval(p *cover.Problem, shots []Shot) *cover.Eval {
	rects := make([]geom.Rect, len(shots))
	for i, s := range shots {
		rects[i] = s.Rect
	}
	e := cover.NewEval(p, rects)
	for i, s := range shots {
		e.SetShotDose(i, s.Dose)
	}
	return e
}

// shotsOf returns the evaluator's shots with their doses.
func shotsOf(e *cover.Eval) []Shot {
	out := make([]Shot, len(e.Shots))
	for i, r := range e.Shots {
		out[i] = Shot{Rect: r, Dose: e.ShotDose(i)}
	}
	return out
}

// Optimize assigns per-shot doses to a fixed-dose shot list, greedily
// stepping each shot's dose by ±Step while the Eq. 5 cost decreases.
func Optimize(p *cover.Problem, rects []geom.Rect, opt Options) *Result {
	shots := make([]Shot, len(rects))
	for i, r := range rects {
		shots[i] = Shot{Rect: r, Dose: 1}
	}
	out, st := optimized(p, shots, opt.withDefaults())
	return &Result{Shots: out, Stats: st}
}

// optimized returns shots after greedy dose sweeps, with their stats.
func optimized(p *cover.Problem, shots []Shot, opt Options) ([]Shot, cover.Stats) {
	e := newEval(p, shots)
	defer e.Close()
	optimizeDoses(e, opt)
	return shotsOf(e), e.Stats()
}

// optimizeDoses runs greedy per-shot dose sweeps on e.
func optimizeDoses(e *cover.Eval, opt Options) {
	for sweep := 0; sweep < opt.Sweeps; sweep++ {
		improved := false
		for i := range e.Shots {
			cur := e.ShotDose(i)
			best, bestDelta := cur, -1e-12
			for _, d := range []float64{cur + opt.Step, cur - opt.Step} {
				if d < opt.MinDose || d > opt.MaxDose {
					continue
				}
				if delta := e.ShotDoseDelta(i, d); delta < bestDelta {
					best, bestDelta = d, delta
				}
			}
			if best != cur {
				e.SetShotDose(i, best)
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}

// Reduce tries to delete shots from a variable-dose solution: after
// each tentative deletion the remaining doses are re-optimized, and the
// deletion is kept when the violation count does not grow. This is
// where variable dose pays off — neighbors can raise their dose to
// cover a removed shot's area.
func Reduce(p *cover.Problem, res *Result, opt Options) *Result {
	opt = opt.withDefaults()
	base := res.Stats.Fail()
	cur := append([]Shot(nil), res.Shots...)
	for {
		improved := false
		for i := 0; i < len(cur); i++ {
			trial := make([]Shot, 0, len(cur)-1)
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[i+1:]...)
			if shots, st := optimized(p, trial, opt); st.Fail() <= base {
				cur = shots
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	e := newEval(p, cur)
	defer e.Close()
	return &Result{Shots: cur, Stats: e.Stats()}
}
