package partition

import (
	"context"
	"fmt"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// init registers conventional partition fracturing with the engine's
// solver registry: a minimum rectangle partition of every target with
// no overlap and no proximity compensation.
func init() {
	engine.Register("partition", func(_ context.Context, p *cover.Problem, _ engine.Options) (*engine.Solution, error) {
		shots, err := Pieces(p, 0)
		if err != nil {
			return nil, err
		}
		return &engine.Solution{Shots: shots}, nil
	})
}

// Pieces partitions every target of the instance into a minimum set of
// rectangles. Rectilinear targets partition directly; otherwise the
// instance is rectilinearized on a grid of the given pitch — 0 selects
// the problem's own sampling grid, a coarser pitch mimics a
// conventional fracture tool (pixel-level staircasing would explode
// the count) — and its outer contours partition.
func Pieces(p *cover.Problem, pitch float64) ([]geom.Rect, error) {
	allRectilinear := true
	for _, t := range p.Targets {
		if !t.IsRectilinear() {
			allRectilinear = false
			break
		}
	}
	var shots []geom.Rect
	if allRectilinear {
		for _, t := range p.Targets {
			rs, err := Minimum(t)
			if err != nil {
				return nil, err
			}
			shots = append(shots, rs...)
		}
		return shots, nil
	}
	bm := p.Inside
	if pitch > 0 {
		bm = raster.NewBitmap(raster.GridCovering(p.TargetBounds(), pitch, pitch))
		for _, t := range p.Targets {
			one, err := raster.Rasterize(t, bm.Grid)
			if err != nil {
				return nil, fmt.Errorf("partition: %w", err)
			}
			for k, v := range one.Bits {
				if v {
					bm.Bits[k] = true
				}
			}
		}
	}
	for _, pg := range raster.Contours(bm) {
		if !pg.IsCCW() {
			continue // holes
		}
		rs, err := Minimum(pg)
		if err != nil {
			return nil, err
		}
		shots = append(shots, rs...)
	}
	if len(shots) == 0 {
		return nil, fmt.Errorf("partition: target rasterizes to nothing")
	}
	return shots, nil
}
