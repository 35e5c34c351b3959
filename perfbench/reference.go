package main

import (
	"context"
	"fmt"

	"maskfrac"
	"maskfrac/internal/cluster"
	"maskfrac/internal/geom"
	"maskfrac/internal/shapecache"
)

// classRef is the answer the cluster stores for one congruence class,
// in the canonical frame, with its verification.
type classRef struct {
	shots                    []geom.Rect
	flashes, failOn, failOff int
	uses                     int64
	// verifyErr is non-nil when the stored answer does not re-score
	// from scratch to its reported counts or is malformed.
	verifyErr error
	// agrees reports whether an in-process re-solve of the class gives
	// the same flash and violation counts. proto-eda does not always
	// (its answers vary between solves of one shape), so disagreement
	// is reported, not counted as a failed operation.
	agrees bool
}

// fetchReference asks the cluster for a class's stored answer with its
// shots (a cache hit on a warm node), re-scores it from scratch and
// re-solves the class in process for comparison.
func fetchReference(c *cluster.Client, can shapecache.Canonical, method string) (classRef, error) {
	ans, err := c.SolveClass(context.Background(), can.KeyWith([]byte(method)), can.Poly)
	if err != nil {
		return classRef{}, fmt.Errorf("fetch class answer: %w", err)
	}
	r := classRef{shots: ans.Shots, flashes: ans.ShotCount - len(ans.LPairs), failOn: ans.FailOn, failOff: ans.FailOff}
	params := maskfrac.DefaultParams()
	r.verifyErr = checkSolution([]geom.Polygon{can.Poly}, params, ans.Shots, ans.LPairs, ans.FailOn, ans.FailOff)
	prob, err := maskfrac.NewProblem(can.Poly, params)
	if err != nil {
		return classRef{}, err
	}
	local, err := prob.Fracture(maskfrac.Method(method), nil)
	if err != nil {
		return classRef{}, err
	}
	r.agrees = local.FlashCount() == r.flashes && local.FailOn == r.failOn && local.FailOff == r.failOff
	return r, nil
}

// reportReferences counts every stored class answer that fails
// verification as a failed operation and notes how many disagree with
// an in-process re-solve.
func reportReferences(obs *observation, refs []classRef) {
	disagree := 0
	for i, r := range refs {
		obs.attempted++
		if r.verifyErr != nil {
			obs.fail("stored answer of class %d: %v", i, r.verifyErr)
		}
		if !r.agrees {
			disagree++
		}
	}
	obs.notes = append(obs.notes, fmt.Sprintf("re-solve disagreements: %d of %d stored class answers differ in flash or violation counts from an in-process re-solve (%s is not deterministic)", disagree, len(refs), obs.method))
}
