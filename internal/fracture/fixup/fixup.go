// Package fixup provides the greedy completion pass shared by the GSC
// and MP baselines: covering residual failing interior pixels with
// component bounding-box shots. Dictionary-driven methods cannot always
// fix convex-corner residues exactly; this pass finishes the cover the
// way a set-cover heuristic would, trying a few box variants per
// component and picking the one with the best net effect.
package fixup

import (
	"context"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
	"maskfrac/internal/telemetry"
)

// GreedyCover repeatedly adds the candidate shot with the best net
// benefit — failing interior pixels fixed minus offPenalty × exterior
// pixels newly pushed over the threshold — until the interior holds, no
// candidate scores positive, or the shot cap is reached. This is the
// core greedy set-cover loop; GSC uses it as its main phase and MP as a
// completion phase.
func GreedyCover(p *cover.Problem, e *cover.Eval, cands []geom.Rect, offPenalty float64, maxShots int) {
	for len(e.Shots) < maxShots {
		st := e.Stats()
		if st.FailOn == 0 {
			return
		}
		failOn, _ := e.FailingBitmaps()
		best, bestScore := geom.Rect{}, 0.0
		for _, c := range cands {
			if score := ScoreCandidate(p, e, failOn, c, offPenalty); score > bestScore {
				best, bestScore = c, score
			}
		}
		if bestScore <= 0 {
			return
		}
		e.Add(best)
	}
}

// ScoreCandidate estimates the net benefit of adding candidate c:
// failing interior pixels the shot would fix, minus a penalty for
// exterior pixels it would push over the threshold. The shot's
// intensity streams from the evaluator's strip tables (Eval.ShotRows),
// so scoring allocates nothing.
func ScoreCandidate(p *cover.Problem, e *cover.Eval, failOn *raster.Bitmap, c geom.Rect, offPenalty float64) float64 {
	g := p.Grid
	rho := p.Params.Rho
	fixed, broken := 0, 0
	e.ShotRows(c, func(j, i0 int, row []float64) {
		base := j*g.W + i0
		for i, inc := range row {
			k := base + i
			cls := p.Class[k]
			if cls == cover.Band || inc < 1e-4 {
				continue
			}
			v := e.Dose.V[k]
			switch cls {
			case cover.On:
				if failOn.Bits[k] && v+inc >= rho {
					fixed++
				}
			case cover.Off:
				if v < rho && v+inc >= rho {
					broken++
				}
			}
		}
	})
	return float64(fixed) - offPenalty*float64(broken)
}

// PatchCtx is Patch with telemetry: when ctx carries a trace it
// records a "fixup.patch" span annotated with shots added and the
// remaining interior violations.
func PatchCtx(ctx context.Context, p *cover.Problem, e *cover.Eval, maxShots int) {
	span := telemetry.ActiveSpan(ctx).Child("fixup.patch")
	before := len(e.Shots)
	Patch(p, e, maxShots)
	if span != nil {
		span.Set("shots_added", len(e.Shots)-before)
		span.Set("fail_on", e.Stats().FailOn)
		span.End()
	}
}

// Patch adds shots over failing interior pixel components until the
// interior constraints hold, the shot cap is reached, or no variant
// makes progress.
func Patch(p *cover.Problem, e *cover.Eval, maxShots int) {
	for len(e.Shots) < maxShots {
		st := e.Stats()
		if st.FailOn == 0 {
			return
		}
		failOn, _ := e.FailingBitmaps()
		labels := raster.ConnectedComponents(failOn)
		boxes := labels.Boxes()
		bestIdx, bestCount := -1, 0
		for i, b := range boxes {
			if b.Count > bestCount {
				bestIdx, bestCount = i, b.Count
			}
		}
		if bestIdx < 0 {
			return
		}
		base := boxRect(p, boxes[bestIdx])
		// try the box and slightly grown/shrunk variants, keep the one
		// with the best net fail reduction
		bestRect, bestFail := geom.Rect{}, st.Fail()
		for _, r := range []geom.Rect{base, base.Inset(-p.Params.Pitch), base.Inset(p.Params.Pitch)} {
			r = legalize(p, r)
			e.Add(r)
			if f := e.Stats().Fail(); f < bestFail {
				bestRect, bestFail = r, f
			}
			e.Remove(len(e.Shots) - 1)
		}
		if bestRect.Empty() {
			return // nothing helps
		}
		e.Add(bestRect)
	}
}

// boxRect converts a pixel component box to a world rectangle.
func boxRect(p *cover.Problem, b raster.ComponentBox) geom.Rect {
	g := p.Grid
	return geom.Rect{
		X0: g.X0 + float64(b.I0)*g.Pitch,
		Y0: g.Y0 + float64(b.J0)*g.Pitch,
		X1: g.X0 + float64(b.I1+1)*g.Pitch,
		Y1: g.Y0 + float64(b.J1+1)*g.Pitch,
	}
}

// legalize grows r symmetrically to the minimum shot size if needed.
func legalize(p *cover.Problem, r geom.Rect) geom.Rect {
	lmin := p.Params.Lmin
	if r.W() < lmin {
		c := (r.X0 + r.X1) / 2
		r.X0, r.X1 = c-lmin/2, c+lmin/2
	}
	if r.H() < lmin {
		c := (r.Y0 + r.Y1) / 2
		r.Y0, r.Y1 = c-lmin/2, c+lmin/2
	}
	return r
}

// EdgeAdjustCtx is EdgeAdjust with telemetry: when ctx carries a trace
// it records a "fixup.edgeadjust" span annotated with the sweep budget
// and the remaining violations.
func EdgeAdjustCtx(ctx context.Context, p *cover.Problem, e *cover.Eval, sweeps int) {
	span := telemetry.ActiveSpan(ctx).Child("fixup.edgeadjust")
	EdgeAdjust(p, e, sweeps)
	if span != nil {
		span.Set("sweeps", sweeps)
		span.Set("fail", e.Stats().Fail())
		span.End()
	}
}

// EdgeAdjust runs a bounded greedy edge-adjustment loop: each sweep
// tries moving every edge of every shot by ±Δp and applies the best
// cost-reducing move per shot. Used by baselines to repair dose
// violations (typically boundary overdose) without the full refinement
// machinery of the paper's method. Returns the best configuration seen.
// L-shot pairs and per-shot doses survive: paired arms only make moves
// that keep their pair an L (Eval.LegalMove), and the restore of the
// best configuration rebuilds both.
func EdgeAdjust(p *cover.Problem, e *cover.Eval, sweeps int) {
	best := e.SnapshotShots()
	bestFail := e.Stats().Fail()
	pitch := p.Params.Pitch
	for iter := 0; iter < sweeps && bestFail > 0; iter++ {
		improved := false
		for i := range e.Shots {
			r := e.Shots[i]
			bestDelta, bestRect := -1e-12, geom.Rect{}
			for s := 0; s < 4; s++ {
				for _, d := range []float64{pitch, -pitch} {
					nr := r
					switch s {
					case 0:
						nr.X0 += d
					case 1:
						nr.X1 += d
					case 2:
						nr.Y0 += d
					case 3:
						nr.Y1 += d
					}
					if !e.LegalMove(i, nr) {
						continue
					}
					if delta := e.DeltaCost(i, nr); delta < bestDelta {
						bestDelta, bestRect = delta, nr
					}
				}
			}
			if bestDelta < -1e-12 {
				e.ApplyDelta(i, bestRect, bestDelta)
				improved = true
			}
		}
		if f := e.Stats().Fail(); f < bestFail {
			best = e.SnapshotShots()
			bestFail = f
		}
		if !improved {
			break
		}
	}
	// restore the best configuration seen (skip the rebuild when the
	// final sweep already holds it); moves change neither the pairs nor
	// the doses, so the current ones are the best configuration's
	if !rectsEqual(e.Shots, best) {
		restore(e, best)
	}
}

// restore resets e to shots, keeping its current L-shot pairs and
// per-shot doses. An all-unit-dose, unpaired evaluator (every baseline
// caller's) restores exactly as Reset would, allocating nothing.
func restore(e *cover.Eval, shots []geom.Rect) {
	var doses []float64
	for i := range e.Shots {
		if e.ShotDose(i) != 1 {
			doses = make([]float64, len(e.Shots))
			for k := range doses {
				doses[k] = e.ShotDose(k)
			}
			break
		}
	}
	e.ResetPaired(shots, e.Pairs())
	for i, d := range doses {
		e.SetShotDose(i, d)
	}
}

// rectsEqual reports whether two shot lists are identical.
func rectsEqual(a, b []geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
