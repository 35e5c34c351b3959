package maskfrac

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"maskfrac/internal/geom"
	"maskfrac/internal/shapegen"
)

// pinnedILTClip is the ilt-cold benchmark's clip i: shapegen.ILTShape
// with seed 1000+i and 2 or 3 blobs.
func pinnedILTClip(i int) []geom.Polygon {
	return []geom.Polygon{shapegen.ILTShape(int64(1000+i), 2+i%2).Target}
}

// pinnedSRAF4 is the ilt-cold benchmark's 4-cluster SRAF instance i:
// four SRAFCluster groups 400 nm apart, which the engine solves as four
// regions.
func pinnedSRAF4(i int) []geom.Polygon {
	var targets []geom.Polygon
	for c := 0; c < 4; c++ {
		for _, p := range shapegen.SRAFCluster(int64(3000+4*i+c), 4) {
			targets = append(targets, p.Translate(geom.Pt(float64(c)*400, 0)))
		}
	}
	return targets
}

// answerHash is the SHA-256 of a solution's shot list (exact float64
// coordinates, in order) and L-shot pairs.
func answerHash(res *Result) string {
	h := sha256.New()
	for _, s := range res.Shots {
		fmt.Fprintf(h, "%v %v %v %v\n", s.X0, s.Y0, s.X1, s.Y1)
	}
	for _, pr := range res.LPairs {
		fmt.Fprintf(h, "p %d %d\n", pr[0], pr[1])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestMBFLAnswersPinned pins the mbf-l answers of four fixed ilt-cold
// instances, two ILT clips and two 4-cluster SRAF instances, to the
// hashes of the shot lists and pairs the evaluator produced before its
// near-threshold scoring shortcut. Evaluator speed-ups must be exact:
// any change to a scored cost, however small, can flip a greedy choice
// and change the refinement trajectory, and it shows up here as a
// different hash. A deliberate change of the algorithm re-records the
// hashes and says so.
func TestMBFLAnswersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("four full mbf-l solves; skipped in -short mode")
	}
	cases := []struct {
		name    string
		targets []geom.Polygon
		shots   int
		pairs   int
		hash    string
	}{
		{"ilt-1002", pinnedILTClip(2), 4, 1, "c06043034a7abcf5ac7e6a429a406746e2c011ab9926e6a4ea741bed2d9b0774"},
		{"ilt-1009", pinnedILTClip(9), 3, 1, "6e89a1e6cdec7339ee07d22716978aaf0fc3c1f5224cc975c5218553b8b98936"},
		{"sraf4-5", pinnedSRAF4(5), 20, 0, "89eb199a55274da8395d5d3293a586351c6fa3937262b7989956c36e4cdc9759"},
		{"sraf4-8", pinnedSRAF4(8), 23, 2, "0c37f3b8c08f3238557fa190209814c9c71d0b5ff506803e4feced1a01a71824"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := NewMultiProblem(c.targets, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.FractureCtx(context.Background(), MethodMBFL, &Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Shots) != c.shots || len(res.LPairs) != c.pairs {
				t.Errorf("%d shots, %d pairs; want %d, %d", len(res.Shots), len(res.LPairs), c.shots, c.pairs)
			}
			if got := answerHash(res); got != c.hash {
				t.Errorf("answer hash %s, want %s", got, c.hash)
			}
		})
	}
}
