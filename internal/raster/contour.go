package raster

import "maskfrac/internal/geom"

// corner identifies a pixel-corner lattice point (i, j) in pixel units.
type corner struct{ i, j int }

// dirEdge is a directed boundary edge between two adjacent lattice
// corners, oriented with the shape interior on its left.
type dirEdge struct {
	from, to corner
}

func (e dirEdge) dir() (int, int) { return e.to.i - e.from.i, e.to.j - e.from.j }

// Contours extracts the closed boundary loops of the true region of b
// as polygons in world coordinates. Interiors are 4-connected. Outer
// boundaries come out counterclockwise, hole boundaries clockwise.
// Vertices lie on pixel corners; collinear runs are collapsed. The
// output is deterministic: loops come out in row-major scan order of
// their first boundary edge, each starting at that edge.
func Contours(b *Bitmap) []geom.Polygon {
	g := b.Grid
	// Collect directed boundary edges (interior on the left), recording
	// the corners in the order the scan first reaches them.
	out := make(map[corner][]dirEdge)
	var order []corner
	addEdge := func(f, t corner) {
		if _, seen := out[f]; !seen {
			order = append(order, f)
		}
		out[f] = append(out[f], dirEdge{f, t})
	}
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			if !b.Bits[g.Index(i, j)] {
				continue
			}
			if !b.Get(i, j-1) { // bottom: +x
				addEdge(corner{i, j}, corner{i + 1, j})
			}
			if !b.Get(i+1, j) { // right: +y
				addEdge(corner{i + 1, j}, corner{i + 1, j + 1})
			}
			if !b.Get(i, j+1) { // top: -x
				addEdge(corner{i + 1, j + 1}, corner{i, j + 1})
			}
			if !b.Get(i-1, j) { // left: -y
				addEdge(corner{i, j + 1}, corner{i, j})
			}
		}
	}
	used := make(map[dirEdge]bool)
	var loops []geom.Polygon
	for _, c := range order {
		for _, start := range out[c] {
			if used[start] {
				continue
			}
			loop := traceLoop(start, out, used)
			if len(loop) >= 4 {
				loops = append(loops, cornersToPolygon(loop, g))
			}
		}
	}
	return loops
}

// traceLoop follows directed edges from start until the loop closes,
// marking edges used. At ambiguous corners (two outgoing edges, the
// checkerboard case) it turns left, which keeps 4-connected interiors
// of diagonal pixel pairs on separate loops.
func traceLoop(start dirEdge, out map[corner][]dirEdge, used map[dirEdge]bool) []corner {
	var loop []corner
	cur := start
	for {
		used[cur] = true
		loop = append(loop, cur.from)
		if cur.to == start.from {
			return loop
		}
		cands := out[cur.to]
		next, ok := pickNext(cur, cands, used)
		if !ok {
			// Should not happen for a well-formed boundary; bail out to
			// avoid an infinite loop.
			return loop
		}
		cur = next
	}
}

// pickNext chooses the next unused outgoing edge, preferring a left
// turn, then straight, then right.
func pickNext(in dirEdge, cands []dirEdge, used map[dirEdge]bool) (dirEdge, bool) {
	dx, dy := in.dir()
	best := dirEdge{}
	bestRank := 4
	found := false
	for _, e := range cands {
		if used[e] {
			continue
		}
		ex, ey := e.dir()
		cross := dx*ey - dy*ex
		var rank int
		switch {
		case cross > 0:
			rank = 0 // left
		case cross == 0 && ex == dx && ey == dy:
			rank = 1 // straight
		default:
			rank = 2 // right (or U-turn, which cannot occur)
		}
		if rank < bestRank {
			bestRank, best, found = rank, e, true
		}
	}
	return best, found
}

// cornersToPolygon converts a lattice-corner loop to a world-coordinate
// polygon with collinear vertices removed.
func cornersToPolygon(loop []corner, g Grid) geom.Polygon {
	pg := make(geom.Polygon, 0, len(loop))
	n := len(loop)
	for k, c := range loop {
		prev := loop[(k+n-1)%n]
		next := loop[(k+1)%n]
		// drop vertices in the middle of straight runs
		if (prev.i == c.i && c.i == next.i) || (prev.j == c.j && c.j == next.j) {
			continue
		}
		pg = append(pg, geom.Pt(g.X0+float64(c.i)*g.Pitch, g.Y0+float64(c.j)*g.Pitch))
	}
	return pg
}

// LargestContour returns the outer contour with the largest area, or nil
// if b has no true pixels. Convenient for single-shape benchmarks.
func LargestContour(b *Bitmap) geom.Polygon {
	var best geom.Polygon
	bestArea := 0.0
	for _, pg := range Contours(b) {
		if a := pg.SignedArea(); a > bestArea { // CCW outer loops only
			bestArea = a
			best = pg
		}
	}
	return best
}
