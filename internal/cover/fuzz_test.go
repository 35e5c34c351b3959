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

// unitMoves returns the eight single-axis ±Δp edge moves of r.
func unitMoves(r geom.Rect, pitch float64) []geom.Rect {
	out := make([]geom.Rect, 0, 8)
	for edge := uint8(1); edge <= 8; edge <<= 1 {
		for _, k := range []int{1, -1} {
			out = append(out, fuzzMove(r, edge, k, pitch))
		}
	}
	return out
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
//
// First, the edge-table memo: on the configuration plus a sibling of
// shot 0 that shares its near edges and ends a fraction of a pitch
// past its far ones, an evaluator whose memo the sibling's unit moves
// warmed must score each of shot 0's moves bit for bit as a fresh
// evaluator of the same configuration does.
func FuzzDeltaCost(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, edges uint8, k int8, dose uint8, paired, double bool) {
		p := fuzzProblem(t, double)
		pitch := p.Params.Pitch
		rng := rand.New(rand.NewSource(seed))
		shots := make([]geom.Rect, 1+rng.Intn(4))
		for i := range shots {
			shots[i] = randShot(rng, p, 40)
		}
		// build evaluates shots with the input's pairing and dose (on
		// shot len(shots)−1): the same calls in the same order give
		// the same dose bits. The cross-check is on before the first
		// mutation, so pairing and dose are checked against a
		// from-scratch rebuild too.
		build := func(shots []geom.Rect) *Eval {
			e := NewEval(p, shots)
			e.SetCrossCheck(true)
			if paired && len(shots) > 1 {
				e.Pair(0, 1)
			}
			if dose != 0 {
				// an L-shot stays at unit dose: dose the shot unless
				// it is an arm
				if i := len(shots) - 1; e.Partner(i) < 0 {
					e.SetShotDose(i, 0.25+float64(dose)/64)
				}
			}
			return e
		}
		if edges&15 == 0 {
			edges = 2
		}
		step := int(k)%8 | 1 // odd, in [-7, 7]

		sibling := shots[0]
		sibling.X1 += rng.Float64() * pitch
		sibling.Y1 += rng.Float64() * pitch
		withSibling := append(shots[:len(shots):len(shots)], sibling)
		warm := build(withSibling)
		defer warm.Close()
		for _, m := range unitMoves(sibling, pitch) {
			warm.DeltaCost(len(shots), m)
		}
		for _, nr := range append(unitMoves(shots[0], pitch), fuzzMove(shots[0], edges, step, pitch)) {
			if nr.W() <= 0 || nr.H() <= 0 {
				continue
			}
			fresh := build(withSibling)
			want := fresh.DeltaCost(0, nr)
			fresh.Close()
			if got := warm.DeltaCost(0, nr); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("move of shot %v to %v: warm-memo DeltaCost %v (%#x), fresh evaluator %v (%#x)",
					shots[0], nr, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}

		e := build(shots)
		defer e.Close()
		for m := 0; m < 3; m++ {
			nr := fuzzMove(e.Shots[0], edges, step, pitch)
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

// TestMemoTablesMatchFreshFill drives the edge-table memo directly
// through keys a single evaluator's moves rarely produce — the same
// edge pair and length at shifted windows, and the same window with a
// nudged edge — and checks every returned table against a fresh strip
// fill bit for bit, on both axes and both model shapes.
func TestMemoTablesMatchFreshFill(t *testing.T) {
	for _, double := range []bool{false, true} {
		p := fuzzProblem(t, double)
		e := NewEval(p, nil)
		g := p.Grid
		rng := rand.New(rand.NewSource(17))
		type key struct {
			a, b     float64
			start, n int
		}
		var last [2]key
		for seq := 0; seq < 400; seq++ {
			ax := rng.Intn(2)
			size, t0 := g.W, g.X0
			if ax == 1 {
				size, t0 = g.H, g.Y0
			}
			k := last[ax]
			switch {
			case seq < 2 || rng.Intn(3) == 0:
				k.a = t0 + rng.Float64()*float64(size)*g.Pitch
				k.b = k.a + rng.Float64()*40
				k.n = 1 + rng.Intn(size)
				k.start = rng.Intn(size - k.n + 1)
			case rng.Intn(2) == 0:
				k.start = rng.Intn(size - k.n + 1) // same edges and length, another window
			default:
				k.b += (rng.Float64() - 0.5) * g.Pitch // same window, another edge
			}
			last[ax] = k
			got := e.memoTables(ax, k.a, k.b, k.start, k.n)
			want := make([]float32, k.n)
			for c := 0; c < p.Model.Components(); c++ {
				p.Model.EdgeProfiles32(want, c, t0, g.Pitch, k.start, k.a, k.b)
				for i := range want {
					if math.Float32bits(got[c][i]) != math.Float32bits(want[i]) {
						t.Fatalf("double=%v seq %d axis %d key %+v component %d: memo sample %d is %v, fresh fill %v",
							double, seq, ax, k, c, i, got[c][i], want[i])
					}
				}
			}
		}
		e.Close()
	}
}
