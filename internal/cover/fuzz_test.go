package cover

import (
	"math"
	"math/rand"
	"testing"

	"maskfrac/internal/geom"
)

// fuzzProblems holds one problem per proximity model, built once per
// fuzz process: the target square is fixed, the shots vary.
var fuzzProblems = map[bool]*Problem{}

func fuzzProblem(t *testing.T, double bool) *Problem {
	if p := fuzzProblems[double]; p != nil {
		return p
	}
	params := propParams()["single"]
	if double {
		params = propParams()["double"]
	}
	p, err := NewProblem(square(40), params)
	if err != nil {
		t.Fatal(err)
	}
	fuzzProblems[double] = p
	return p
}

// fuzzMove returns r with the edges selected by the low four bits of
// edges (X0, X1, Y0, Y1) shifted by k pitches; bit 4 moves the far
// edges (X1, Y1) against the near ones, a resize instead of a
// translation.
func fuzzMove(r geom.Rect, edges uint8, k int, pitch float64) geom.Rect {
	d := float64(k) * pitch
	far := d
	if edges&16 != 0 {
		far = -d
	}
	if edges&1 != 0 {
		r.X0 += d
	}
	if edges&2 != 0 {
		r.X1 += far
	}
	if edges&4 != 0 {
		r.Y0 += d
	}
	if edges&8 != 0 {
		r.Y1 += far
	}
	return r
}

// FuzzDeltaCost checks DeltaCost against the full strip scan and
// ApplyDelta against DeltaCost on random configurations: 1 to 4 random
// shots, optionally a non-unit dose on one shot, an L-pair of shots 0
// and 1, and the two-Gaussian model. Shot 0 then makes three moves of
// ±k·Δp on the edges the input selects: single-axis or two-axis, one
// pitch (the near-bitmap scorer) or several (its full-scan fallback).
// Each move's DeltaCost must equal the full strip scan bit for bit, and
// committing it with ApplyDelta under the cross-check must realize the
// scored change and leave fail and near bitmaps equal to the ones
// derived from the dose field.
func FuzzDeltaCost(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, edges uint8, k int8, dose uint8, paired, double bool) {
		p := fuzzProblem(t, double)
		rng := rand.New(rand.NewSource(seed))
		shots := make([]geom.Rect, 1+rng.Intn(4))
		for i := range shots {
			shots[i] = randShot(rng, p, 40)
		}
		e := NewEval(p, shots)
		defer e.Close()
		e.SetCrossCheck(true)
		if paired && len(shots) > 1 {
			e.Pair(0, 1)
		}
		if dose != 0 {
			// an L-shot stays at unit dose: dose the last shot unless
			// it is an arm
			if i := len(shots) - 1; e.Partner(i) < 0 {
				e.SetShotDose(i, 0.25+float64(dose)/64)
			}
		}
		if edges&15 == 0 {
			edges = 2
		}
		step := int(k)%8 | 1 // odd, in [-7, 7]
		for m := 0; m < 3; m++ {
			nr := fuzzMove(e.Shots[0], edges, step, p.Params.Pitch)
			if nr.W() <= 0 || nr.H() <= 0 {
				return
			}
			got := e.DeltaCost(0, nr)
			e.noPrune = true
			want := e.DeltaCost(0, nr)
			e.noPrune = false
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("move %d of shot %v to %v: DeltaCost %v (%#x), full strip scan %v (%#x)",
					m, e.Shots[0], nr, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			e.ApplyDelta(0, nr, got)
			step = -step
			if m == 1 {
				step = 1
			}
		}
	})
}
