package mbf

import (
	"context"
	"reflect"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/geom"
	"maskfrac/internal/shapegen"
)

// TestRemoveAndRepairParallelMatchesSequential holds the parallel
// deletion trials to the sequential scan: on small ILT and SRAF inputs,
// removeAndRepair with a pool of 3 tokens must return the shots a pool
// of 0 returns and move the process-wide evaluator counters by exactly
// the same amounts — the discarded trials' pixels go to
// PixelsSpeculative and nowhere else. The parallel runs must have
// discarded some work, or the comparison proves nothing; a few attempts
// allow for a scheduler that happens to leave the helpers idle.
func TestRemoveAndRepairParallelMatchesSequential(t *testing.T) {
	inputs := map[string][]geom.Polygon{
		"ilt-1002":  {shapegen.ILTShape(1002, 2).Target},
		"sraf-3020": shapegen.SRAFCluster(3020, 4),
	}
	for name, targets := range inputs {
		t.Run(name, func(t *testing.T) {
			p, err := cover.NewMultiProblem(targets, cover.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			// the approximate stage's shots, polished: they overlap
			// and shadow each other, so some deletions repair to the
			// polished violation count and some do not
			shots, _ := approximateFracture(context.Background(), p, Options{}.withDefaults(p))
			shots = polish(context.Background(), p, shots)
			baseFail := p.Evaluate(shots).Fail()
			run := func(tokens int) ([]geom.Rect, cover.EvalEffort) {
				ctx := engine.WithPool(context.Background(), engine.NewPool(tokens))
				before := cover.EvalCounters()
				out := removeAndRepair(ctx, p, shots, baseFail)
				after := cover.EvalCounters()
				return out, cover.EvalEffort{
					Mutations:         after.Mutations - before.Mutations,
					PixelsMutated:     after.PixelsMutated - before.PixelsMutated,
					PixelsScored:      after.PixelsScored - before.PixelsScored,
					PixelsSkipped:     after.PixelsSkipped - before.PixelsSkipped,
					PixelsSpeculative: after.PixelsSpeculative - before.PixelsSpeculative,
				}
			}
			seqShots, seqEffort := run(0)
			if seqEffort.PixelsSpeculative != 0 {
				t.Fatalf("sequential run counted %d speculative pixels", seqEffort.PixelsSpeculative)
			}
			if len(seqShots) >= len(shots) {
				t.Fatalf("no deletion kept (%d shots in, %d out): the input exercises nothing", len(shots), len(seqShots))
			}
			speculated := false
			for attempt := 0; attempt < 3 && !speculated; attempt++ {
				parShots, parEffort := run(3)
				if !reflect.DeepEqual(parShots, seqShots) {
					t.Fatalf("attempt %d: 3-token shots differ from the sequential scan's:\n%v\n%v", attempt, parShots, seqShots)
				}
				speculated = parEffort.PixelsSpeculative > 0
				parEffort.PixelsSpeculative = 0
				if parEffort != seqEffort {
					t.Fatalf("attempt %d: counter deltas differ:\n3 tokens   %+v\nsequential %+v", attempt, parEffort, seqEffort)
				}
			}
			if !speculated {
				t.Fatal("three 3-token runs discarded no trial: the parallel path never ran")
			}
			t.Logf("%d shots → %d, base fail %d", len(shots), len(seqShots), baseFail)
		})
	}
}
