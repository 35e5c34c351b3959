package shapecache

import (
	"math"

	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
)

// PlacementKeys canonicalizes the placements of one library walk. All
// placements of one dictionary boundary under one composed orientation
// differ only by a translation, so they share the canonical polygon,
// the transform T and the key; only Off moves. PlacementKeys therefore
// runs the D4 search once per (Cell, Shape, Orient) — on the oriented
// boundary at the origin, which orienting (swaps and negations only)
// produces exactly — and per placement computes just Off, in one pass
// over the world polygon.
//
// On dyadic coordinates (integer nanometres and the like) Of(pl) equals
// Canonicalize(pl.Polygon) and its KeyWith bit for bit. Elsewhere it is
// the better answer: translated copies of one (Cell, Shape, Orient)
// always share a class (see Canonicalize's float caveat).
//
// Memory is O(8 × dictionary boundaries). A PlacementKeys is not safe
// for concurrent use; a walk's producer is single-threaded.
type PlacementKeys struct {
	cells map[string]*maskio.Cell
	extra []byte
	seen  map[placementID]orientedClass
}

type placementID struct {
	cell   string
	shape  int
	orient maskio.Orient
}

type orientedClass struct {
	poly geom.Polygon
	t    Transform
	key  Key
}

// NewPlacementKeys returns a PlacementKeys for placements walked from
// lib, keyed with extra (see Canonical.KeyWith).
func NewPlacementKeys(lib *maskio.Library, extra []byte) *PlacementKeys {
	cells := make(map[string]*maskio.Cell, len(lib.Cells))
	for _, c := range lib.Cells {
		cells[c.Name] = c
	}
	return &PlacementKeys{
		cells: cells,
		extra: extra,
		seen:  make(map[placementID]orientedClass),
	}
}

// Of returns the canonical form and key of pl, a placement walked from
// the library. The returned Poly is shared by every placement of the
// same (Cell, Shape, Orient); callers must not modify it.
func (pk *PlacementKeys) Of(pl maskio.Placement) (Canonical, Key) {
	id := placementID{pl.Cell, pl.Shape, pl.Orient}
	oc, ok := pk.seen[id]
	if !ok {
		b := pk.cells[pl.Cell].Boundaries[pl.Shape]
		oriented := make(geom.Polygon, len(b))
		for i, p := range b {
			oriented[i] = pl.Orient.Apply(p)
		}
		can := Canonicalize(oriented)
		oc = orientedClass{poly: can.Poly, t: can.T, key: can.KeyWith(pk.extra)}
		pk.seen[id] = oc
	}
	return Canonical{Poly: oc.poly, T: oc.t, Off: transformedMin(pl.Polygon, oc.t)}, oc.key
}

// Canonicalized returns the number of full D4 searches run so far: the
// distinct (Cell, Shape, Orient) triples seen.
func (pk *PlacementKeys) Canonicalized() int { return len(pk.seen) }

// transformedMin returns the bounding-box minimum of t(pg) without
// materializing it. math.Min does not depend on operand order, signed
// zeros included, so this is bit-identical to bboxMin(transformPoly(…)).
func transformedMin(pg geom.Polygon, t Transform) geom.Point {
	m := t.Apply(pg[0])
	for _, p := range pg[1:] {
		q := t.Apply(p)
		m.X = math.Min(m.X, q.X)
		m.Y = math.Min(m.Y, q.Y)
	}
	return m
}
