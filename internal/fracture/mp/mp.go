// Package mp implements the matching pursuit baseline for model-based
// mask fracturing (Jiang & Zakhor, "Application of signal reconstruction
// techniques to shot count reduction in simulation driven fracturing"),
// the heuristic "MP" of the paper's Tables 2/3.
//
// The target dose image (1 inside the shape, 0 outside) is approximated
// as a sum of shot atoms. Each iteration picks the dictionary shot with
// the highest normalized correlation against the current residual
// (computed with a summed-area table over the candidate rectangle) and
// adds the shot to the evaluator, whose dose field the residual is read
// against.
package mp

import (
	"math"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/fixup"
	"maskfrac/internal/fracture/shotdict"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// Options tune the baseline.
type Options struct {
	MaxShots int     // iteration cap (default 150)
	MinCorr  float64 // stop when best normalized correlation falls below this (default 0.5)
}

// Result is the outcome of the MP baseline.
type Result struct {
	Shots []geom.Rect
	Stats cover.Stats
}

// Fracture runs matching pursuit on the problem.
func Fracture(p *cover.Problem, opt Options) *Result {
	if opt.MaxShots == 0 {
		opt.MaxShots = 150
	}
	if opt.MinCorr == 0 {
		opt.MinCorr = 0.5
	}
	cands := shotdict.Rich(p, 24, 0.55)
	g := p.Grid
	e := cover.NewEval(p, nil)
	defer e.Close()
	sat := make([]float64, (g.W+1)*(g.H+1))
	for len(e.Shots) < opt.MaxShots {
		buildSAT(p.Inside, e.Dose, sat)
		best, bestScore := geom.Rect{}, opt.MinCorr
		for _, c := range cands {
			s := boxSum(g, sat, c)
			if s <= 0 {
				continue
			}
			// normalized correlation against the (approximately
			// indicator-shaped) atom: <R, atom>/||atom||
			score := s / math.Sqrt(c.Area()/(g.Pitch*g.Pitch))
			if score > bestScore {
				best, bestScore = c, score
			}
		}
		if best.Empty() {
			break
		}
		e.Add(best)
		if st := e.Stats(); st.Fail() == 0 {
			break
		}
	}
	// matching pursuit leaves residues its dictionary cannot express
	// (typically corner patches and crescents); complete the cover with
	// the dose-aware greedy pass, then box patching
	fixup.GreedyCover(p, e, cands, 1, opt.MaxShots)
	fixup.Patch(p, e, opt.MaxShots)
	// unit-dose atoms overdose the exterior near boundary overlaps;
	// repair with bounded edge-adjustment passes (matching pursuit is
	// the slowest heuristic in the paper's tables, so a generous repair
	// budget is in character)
	fixup.EdgeAdjust(p, e, 150)
	fixup.Patch(p, e, opt.MaxShots)
	fixup.EdgeAdjust(p, e, 150)
	return &Result{Shots: e.SnapshotShots(), Stats: e.Stats()}
}

// buildSAT fills sat with the summed-area table of the residual
// inside − dose (the desired full-dose indicator of the target minus
// the current dose): sat[(j)*(W+1)+i] is the sum over pixels with
// coordinates < (i, j).
func buildSAT(inside *raster.Bitmap, dose *raster.Field, sat []float64) {
	g := dose.Grid
	w := g.W + 1
	for i := 0; i < w; i++ {
		sat[i] = 0
	}
	for j := 0; j < g.H; j++ {
		rowSum := 0.0
		for i := 0; i < g.W; i++ {
			k := j*g.W + i
			r := -dose.V[k]
			if inside.Bits[k] {
				r = 1 - dose.V[k]
			}
			rowSum += r
			sat[(j+1)*w+i+1] = sat[j*w+i+1] + rowSum
		}
		sat[(j+1)*w] = 0
	}
}

// boxSum returns the residual sum over the pixels whose centers lie in
// rectangle r.
func boxSum(g raster.Grid, sat []float64, r geom.Rect) float64 {
	i0 := int(math.Ceil((r.X0-g.X0)/g.Pitch - 0.5))
	j0 := int(math.Ceil((r.Y0-g.Y0)/g.Pitch - 0.5))
	i1 := int(math.Ceil((r.X1-g.X0)/g.Pitch-0.5)) - 1
	j1 := int(math.Ceil((r.Y1-g.Y0)/g.Pitch-0.5)) - 1
	i0, j0 = g.ClampX(i0), g.ClampY(j0)
	i1, j1 = g.ClampX(i1), g.ClampY(j1)
	if i1 < i0 || j1 < j0 {
		return 0
	}
	w := g.W + 1
	return sat[(j1+1)*w+i1+1] - sat[j0*w+i1+1] - sat[(j1+1)*w+i0] + sat[j0*w+i0]
}
