package cluster

import (
	"context"
	"testing"

	"maskfrac/internal/shapegen"
)

// BenchmarkRunPipeline streams shapegen.DemoLibrary (5760 placements
// of 10 classes) through three in-process nodes whose caches one
// untimed run has warmed, so it times the client side of a full-mask
// run: the walk, canonicalization, the class memo and the reorder
// window. It reports placements/s and allocs/op.
func BenchmarkRunPipeline(b *testing.B) {
	c, _ := startCluster(b, 3, Config{})
	lib := shapegen.DemoLibrary(24, 24)
	ctx := context.Background()
	if _, err := RunPipeline(ctx, c, lib, PipelineConfig{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var placements int64
	for i := 0; i < b.N; i++ {
		mr, err := RunPipeline(ctx, c, lib, PipelineConfig{})
		if err != nil {
			b.Fatal(err)
		}
		placements += mr.Placements
	}
	b.ReportMetric(float64(placements)/b.Elapsed().Seconds(), "placements/s")
}
