// Package shapecache is a content-addressed result cache for mask
// fracturing. A full mask holds billions of polygons but most are
// repeats of a small dictionary of shapes (paper §2), so fracturing
// results are cached under a canonical form of the target polygon:
// congruent shapes — equal up to translation and the eight axis-aligned
// symmetries (rotations by multiples of 90° and mirrors) — share one
// cache entry, and each congruence class pays the solver cost once.
package shapecache

import (
	"crypto/sha256"

	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
)

// Transform is one of the eight axis-aligned symmetries of the plane
// (the dihedral group D4): the identity, rotations by 90/180/270
// degrees, and the four reflections.
type Transform uint8

const (
	Identity      Transform = iota // (x, y)
	Rot90                          // (-y, x)
	Rot180                         // (-x, -y)
	Rot270                         // (y, -x)
	MirrorX                        // (-x, y)  reflect across the vertical axis
	MirrorY                        // (x, -y)  reflect across the horizontal axis
	Transpose                      // (y, x)   reflect across the main diagonal
	AntiTranspose                  // (-y, -x) reflect across the anti-diagonal
	numTransforms
)

// Apply maps a point through the transform.
func (t Transform) Apply(p geom.Point) geom.Point {
	switch t {
	case Rot90:
		return geom.Pt(-p.Y, p.X)
	case Rot180:
		return geom.Pt(-p.X, -p.Y)
	case Rot270:
		return geom.Pt(p.Y, -p.X)
	case MirrorX:
		return geom.Pt(-p.X, p.Y)
	case MirrorY:
		return geom.Pt(p.X, -p.Y)
	case Transpose:
		return geom.Pt(p.Y, p.X)
	case AntiTranspose:
		return geom.Pt(-p.Y, -p.X)
	default:
		return p
	}
}

// ApplyRect maps an axis-parallel rectangle through the transform; the
// image of an axis-parallel rectangle under any D4 element is again
// axis-parallel.
func (t Transform) ApplyRect(r geom.Rect) geom.Rect {
	return geom.RectFromCorners(t.Apply(geom.Pt(r.X0, r.Y0)), t.Apply(geom.Pt(r.X1, r.Y1)))
}

// Inverse returns the transform undoing t. All D4 elements are
// involutions except the quarter turns, which invert each other.
func (t Transform) Inverse() Transform {
	switch t {
	case Rot90:
		return Rot270
	case Rot270:
		return Rot90
	default:
		return t
	}
}

// Mirrors reports whether the transform reverses orientation
// (determinant -1).
func (t Transform) Mirrors() bool {
	return t >= MirrorX
}

// Canonical relates a query polygon to its canonical form: for every
// query point q, the canonical-frame point is T(q) - Off.
type Canonical struct {
	Poly geom.Polygon // canonical polygon: T(query) translated to the origin
	T    Transform    // symmetry applied to the query
	Off  geom.Point   // bounding-box minimum of T(query)
}

// Canonicalize computes the canonical form of pg: the lexicographically
// least vertex sequence over the eight axis-aligned symmetries, after
// translating the transformed shape's bounding-box minimum to the
// origin, orienting counterclockwise and rotating the vertex list to
// start at its least vertex. Congruent polygons — equal up to vertex
// list rotation, orientation, translation and any D4 symmetry — map to
// the same canonical polygon, so its bytes can serve as a cache key.
//
// Float caveat: translation subtracts the bounding-box minimum, so two
// translated copies of a shape canonicalize identically only when the
// subtraction is exact (always true for integer-nanometer and other
// dyadic coordinates, the common case for mask data). Inexact cases
// fall back to a harmless cache miss, never a wrong hit. Within a
// library walk the caveat does not apply: PlacementKeys canonicalizes
// each dictionary boundary once per orientation at the origin, so
// translated copies of one (Cell, Shape, Orient) always share a class,
// whatever their origins.
func Canonicalize(pg geom.Polygon) Canonical {
	ccw := pg.EnsureCCW()
	var best Canonical
	for t := Identity; t < numTransforms; t++ {
		cand := transformPoly(ccw, t)
		off := bboxMin(cand)
		for i := range cand {
			cand[i] = normZero(cand[i].Sub(off))
		}
		rotateToLeast(cand)
		if best.Poly == nil || lessPoly(cand, best.Poly) {
			best = Canonical{Poly: cand, T: t, Off: off}
		}
	}
	return best
}

// ToCanonical maps query-frame shots into the canonical frame.
func (c Canonical) ToCanonical(shots []geom.Rect) []geom.Rect {
	out := make([]geom.Rect, len(shots))
	for i, s := range shots {
		r := c.T.ApplyRect(s)
		out[i] = geom.Rect{X0: r.X0 - c.Off.X, Y0: r.Y0 - c.Off.Y, X1: r.X1 - c.Off.X, Y1: r.Y1 - c.Off.Y}
	}
	return out
}

// FromCanonical maps canonical-frame shots back into the query frame.
func (c Canonical) FromCanonical(shots []geom.Rect) []geom.Rect {
	inv := c.T.Inverse()
	out := make([]geom.Rect, len(shots))
	for i, s := range shots {
		r := geom.Rect{X0: s.X0 + c.Off.X, Y0: s.Y0 + c.Off.Y, X1: s.X1 + c.Off.X, Y1: s.Y1 + c.Off.Y}
		out[i] = inv.ApplyRect(r)
	}
	return out
}

// Key identifies a cached solution: the hash of the canonical polygon
// plus whatever solver configuration the caller mixes in.
type Key [sha256.Size]byte

// KeyWith hashes the canonical polygon together with extra bytes
// describing the solver configuration (parameters, method, options).
func (c Canonical) KeyWith(extra []byte) Key {
	buf := maskio.AppendPolygon(nil, c.Poly)
	h := sha256.New()
	h.Write(buf)
	h.Write(extra)
	var k Key
	h.Sum(k[:0])
	return k
}

// transformPoly applies t to every vertex, reversing the result when t
// mirrors so the output stays counterclockwise.
func transformPoly(pg geom.Polygon, t Transform) geom.Polygon {
	out := make(geom.Polygon, len(pg))
	if t.Mirrors() {
		for i, p := range pg {
			out[len(pg)-1-i] = t.Apply(p)
		}
	} else {
		for i, p := range pg {
			out[i] = t.Apply(p)
		}
	}
	return out
}

// bboxMin returns the bounding-box minimum corner of pg.
func bboxMin(pg geom.Polygon) geom.Point {
	b := pg.Bounds()
	return geom.Pt(b.X0, b.Y0)
}

// normZero collapses negative zeros so hashing and comparison see one
// representation; transforms negate coordinates, which turns +0 into
// -0 even though the two compare equal.
func normZero(p geom.Point) geom.Point {
	if p.X == 0 {
		p.X = 0
	}
	if p.Y == 0 {
		p.Y = 0
	}
	return p
}

// rotateToLeast rotates the vertex list in place so it starts at the
// rotation yielding the lexicographically least sequence. Candidate
// start points are the occurrences of the least vertex; ties between
// equal vertices are broken by comparing the full sequences.
func rotateToLeast(pg geom.Polygon) {
	n := len(pg)
	if n == 0 {
		return
	}
	start := 0
	for i := 1; i < n; i++ {
		switch cmpPoint(pg[i], pg[start]) {
		case -1:
			start = i
		case 0:
			if cmpRotations(pg, i, start) < 0 {
				start = i
			}
		}
	}
	if start == 0 {
		return
	}
	rotated := make(geom.Polygon, n)
	copy(rotated, pg[start:])
	copy(rotated[n-start:], pg[:start])
	copy(pg, rotated)
}

// cmpPoint orders points by (X, Y).
func cmpPoint(a, b geom.Point) int {
	switch {
	case a.X < b.X:
		return -1
	case a.X > b.X:
		return 1
	case a.Y < b.Y:
		return -1
	case a.Y > b.Y:
		return 1
	}
	return 0
}

// cmpRotations compares the rotations of pg starting at i and j.
func cmpRotations(pg geom.Polygon, i, j int) int {
	n := len(pg)
	for k := 0; k < n; k++ {
		if c := cmpPoint(pg[(i+k)%n], pg[(j+k)%n]); c != 0 {
			return c
		}
	}
	return 0
}

// lessPoly reports whether a precedes b lexicographically (vertex by
// vertex, shorter first on a shared prefix; canonical candidates always
// share a length).
func lessPoly(a, b geom.Polygon) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := cmpPoint(a[i], b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}
