package shapecache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapegen"
)

var allOrients = []maskio.Orient{
	maskio.OrientIdentity, maskio.OrientRot90, maskio.OrientRot180, maskio.OrientRot270,
	maskio.OrientMirrorX, maskio.OrientMirrorY, maskio.OrientTranspose, maskio.OrientAntiTranspose,
}

// quarterClip is an ILT-like clip (shapegen.ILTShape) snapped to a
// quarter nanometre with its bounding box at the origin: asymmetric and
// non-Manhattan, with dyadic coordinates.
func quarterClip(seed int64) geom.Polygon {
	t := shapegen.ILTShape(seed, 2+int(seed%2)).Target
	bb := t.Bounds()
	var p geom.Polygon
	for _, v := range t {
		q := geom.Pt(math.Round((v.X-bb.X0)*4)/4, math.Round((v.Y-bb.Y0)*4)/4)
		if len(p) == 0 || q != p[len(p)-1] {
			p = append(p, q)
		}
	}
	if len(p) > 1 && p[0] == p[len(p)-1] {
		p = p[:len(p)-1]
	}
	return p
}

// d4Symmetric returns a square and a plus: boundaries whose eight D4
// candidates tie in groups, so Canonicalize's first-wins tie break
// decides T.
func d4Symmetric() (square, plus geom.Polygon) {
	square = geom.Polygon{geom.Pt(0, 0), geom.Pt(40, 0), geom.Pt(40, 40), geom.Pt(0, 40)}
	plus = geom.Polygon{
		geom.Pt(30, 0), geom.Pt(60, 0), geom.Pt(60, 30), geom.Pt(90, 30),
		geom.Pt(90, 60), geom.Pt(60, 60), geom.Pt(60, 90), geom.Pt(30, 90),
		geom.Pt(30, 60), geom.Pt(0, 60), geom.Pt(0, 30), geom.Pt(30, 30),
	}
	return square, plus
}

// randomLibrary builds a three-level hierarchy from clips: two leaves,
// a mid cell placing them under all eight orientations plus an AREF,
// and a top cell placing mid under all eight orientations plus AREFs
// of mid and a leaf. Every cell has at least two boundaries. origin
// draws every reference origin and lattice step.
func randomLibrary(rng *rand.Rand, clips []geom.Polygon, origin func() geom.Point) *maskio.Library {
	square, plus := d4Symmetric()
	rect := geom.Polygon{geom.Pt(0, 0), geom.Pt(70, 0), geom.Pt(70, 30), geom.Pt(0, 30)}
	leaf0 := &maskio.Cell{Name: "leaf0", Boundaries: []geom.Polygon{square, clips[0]}}
	leaf1 := &maskio.Cell{Name: "leaf1", Boundaries: []geom.Polygon{plus, clips[1], rect}}
	orient := func() maskio.Orient { return allOrients[rng.Intn(len(allOrients))] }

	mid := &maskio.Cell{Name: "mid", Boundaries: []geom.Polygon{clips[2], rect.Translate(geom.Pt(-35, 12.5))}}
	for i, o := range allOrients {
		mid.Refs = append(mid.Refs, maskio.Ref{Cell: fmt.Sprintf("leaf%d", i%2), Orient: o, Origin: origin(), Cols: 1, Rows: 1})
	}
	mid.Refs = append(mid.Refs, maskio.Ref{
		Cell: "leaf0", Orient: orient(), Origin: origin(),
		Cols: 3, Rows: 2, ColStep: origin(), RowStep: origin(),
	})

	top := &maskio.Cell{Name: "top", Boundaries: []geom.Polygon{clips[3], square.Translate(origin())}}
	for _, o := range allOrients {
		top.Refs = append(top.Refs, maskio.Ref{Cell: "mid", Orient: o, Origin: origin(), Cols: 1, Rows: 1})
	}
	top.Refs = append(top.Refs,
		maskio.Ref{Cell: "mid", Orient: orient(), Origin: origin(), Cols: 2, Rows: 2, ColStep: origin(), RowStep: origin()},
		maskio.Ref{Cell: "leaf1", Orient: orient(), Origin: origin(), Cols: 4, Rows: 1, ColStep: origin(), RowStep: origin()},
	)
	return &maskio.Library{Name: "random", Cells: []*maskio.Cell{leaf0, leaf1, mid, top}}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePointBits(a, b geom.Point) bool { return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) }

func samePolyBits(a, b geom.Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !samePointBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameRectsBits(a, b []geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !samePointBits(geom.Pt(a[i].X0, a[i].Y0), geom.Pt(b[i].X0, b[i].Y0)) ||
			!samePointBits(geom.Pt(a[i].X1, a[i].Y1), geom.Pt(b[i].X1, b[i].Y1)) {
			return false
		}
	}
	return true
}

// TestPlacementKeysMatchCanonicalize is the equivalence property: on
// dyadic coordinates, canonicalizing once per (Cell, Shape, Orient)
// and recomputing only Off gives every placement exactly what a
// per-placement Canonicalize gives — Poly, T, Off and key bit for bit,
// and so the same FromCanonical shots.
func TestPlacementKeysMatchCanonicalize(t *testing.T) {
	clips := []geom.Polygon{quarterClip(11), quarterClip(12), quarterClip(13), quarterClip(14)}
	shots := []geom.Rect{{X0: 0, Y0: 0, X1: 10, Y1: 20}, {X0: 5.25, Y0: 3, X1: 7, Y1: 41.5}, {X0: 12, Y0: 0.75, X1: 30, Y1: 8}}
	extra := []byte("proto-eda")
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		origin := func() geom.Point {
			return geom.Pt(float64(rng.Intn(40001)-20000)/4, float64(rng.Intn(40001)-20000)/4)
		}
		lib := randomLibrary(rng, clips, origin)
		pk := NewPlacementKeys(lib, extra)
		triples := map[placementID]bool{}
		n := 0
		err := lib.Walk(func(pl maskio.Placement) error {
			n++
			triples[placementID{pl.Cell, pl.Shape, pl.Orient}] = true
			want := Canonicalize(pl.Polygon)
			got, key := pk.Of(pl)
			switch {
			case !samePolyBits(got.Poly, want.Poly):
				t.Errorf("seed %d placement %d (%s/%d, orient %d): canonical polygon differs", seed, pl.Seq, pl.Cell, pl.Shape, pl.Orient)
			case got.T != want.T:
				t.Errorf("seed %d placement %d: T = %d, Canonicalize %d", seed, pl.Seq, got.T, want.T)
			case !samePointBits(got.Off, want.Off):
				t.Errorf("seed %d placement %d: Off = %v, Canonicalize %v", seed, pl.Seq, got.Off, want.Off)
			case key != want.KeyWith(extra):
				t.Errorf("seed %d placement %d: key differs", seed, pl.Seq)
			case !sameRectsBits(got.FromCanonical(shots), want.FromCanonical(shots)):
				t.Errorf("seed %d placement %d: FromCanonical shots differ", seed, pl.Seq)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if pk.Canonicalized() != len(triples) {
			t.Errorf("seed %d: %d D4 searches for %d distinct (Cell, Shape, Orient)", seed, pk.Canonicalized(), len(triples))
		}
		if pk.Canonicalized() >= n {
			t.Errorf("seed %d: %d D4 searches for %d placements, want far fewer", seed, pk.Canonicalized(), n)
		}
	}
}

// TestPlacementKeysNonDyadicOrigins pins the float caveat. Under
// origins like 0.1·i, the translation a per-placement Canonicalize
// subtracts is inexact, so one shape splits into several keys;
// PlacementKeys keeps one class per dictionary boundary (up to D4)
// and still reports each placement's exact Off = bboxMin(T(polygon)).
func TestPlacementKeysNonDyadicOrigins(t *testing.T) {
	clips := []geom.Polygon{quarterClip(21), quarterClip(22), quarterClip(23), quarterClip(24)}
	rng := rand.New(rand.NewSource(7))
	origin := func() geom.Point { return geom.Pt(0.1*float64(1+rng.Intn(30)), 0.1*float64(1+rng.Intn(30))) }
	lib := randomLibrary(rng, clips, origin)
	pk := NewPlacementKeys(lib, nil)
	type boundary struct {
		cell  string
		shape int
	}
	classes := map[boundary]map[Key]bool{}
	perPlacement := map[Key]bool{}
	err := lib.Walk(func(pl maskio.Placement) error {
		can, key := pk.Of(pl)
		b := boundary{pl.Cell, pl.Shape}
		if classes[b] == nil {
			classes[b] = map[Key]bool{}
		}
		classes[b][key] = true
		perPlacement[Canonicalize(pl.Polygon).KeyWith(nil)] = true
		var tp geom.Polygon
		for _, p := range pl.Polygon {
			tp = append(tp, can.T.Apply(p))
		}
		bb := tp.Bounds()
		if !samePointBits(can.Off, geom.Pt(bb.X0, bb.Y0)) {
			t.Errorf("placement %d: Off = %v, bboxMin(T(polygon)) = (%v, %v)", pl.Seq, can.Off, bb.X0, bb.Y0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for b, keys := range classes {
		if len(keys) != 1 {
			t.Errorf("boundary %s/%d: %d classes across its placements, want 1", b.cell, b.shape, len(keys))
		}
	}
	// the caveat is real on this input, or the test proves nothing
	if len(perPlacement) <= len(classes) {
		t.Errorf("per-placement Canonicalize gave %d keys; the input no longer exercises the float caveat", len(perPlacement))
	}
}
