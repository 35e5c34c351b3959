package mbf

import (
	"context"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
)

// init registers the paper's method with the engine's solver registry
// under the names the public facade exposes: "mbf" is the
// rectangle-only method, "mbf-l" appends the L-shot matching pass
// (lshots.go) so compatible rectangle pairs price as single flashes,
// and "lshape" runs the same matching on a conventional rectangle
// partition.
func init() {
	register := func(name string, lshots bool) {
		engine.Register(name, func(ctx context.Context, p *cover.Problem, opt engine.Options) (*engine.Solution, error) {
			r := FractureCtx(ctx, p, Options{
				Nmax:           opt.MaxIterations,
				Order:          opt.Order,
				SkipRefinement: opt.SkipRefinement,
				LShots:         lshots,
			})
			info := r.Info
			return &engine.Solution{Shots: r.Shots, Pairs: r.Pairs, Stage: &info}, nil
		})
	}
	register("mbf", false)
	register("mbf-l", true)
	engine.Register("lshape", func(_ context.Context, p *cover.Problem, _ engine.Options) (*engine.Solution, error) {
		return lshapeFracture(p)
	})
}
