package maskfrac

import (
	"fmt"
	"testing"
)

// lShapeSuite returns the rectilinear shape suite of the L-shape
// evaluation protocol (EXPERIMENTS.md): shapes whose minimal covers
// contain many flush rectangle pairs, so an L-shot pass has real
// pairing opportunities. Coordinates are in nanometers on the default
// 1 nm pitch.
func lShapeSuite() []struct {
	Name string
	Poly Polygon
} {
	return []struct {
		Name string
		Poly Polygon
	}{
		{"L", Polygon{
			{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 60, Y: 20},
			{X: 20, Y: 20}, {X: 20, Y: 60}, {X: 0, Y: 60},
		}},
		{"T", Polygon{
			{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 60, Y: 20}, {X: 40, Y: 20},
			{X: 40, Y: 60}, {X: 20, Y: 60}, {X: 20, Y: 20}, {X: 0, Y: 20},
		}},
		{"U", Polygon{
			{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 60, Y: 50}, {X: 40, Y: 50},
			{X: 40, Y: 20}, {X: 20, Y: 20}, {X: 20, Y: 50}, {X: 0, Y: 50},
		}},
		{"staircase", Polygon{
			{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 30, Y: 20}, {X: 50, Y: 20},
			{X: 50, Y: 40}, {X: 70, Y: 40}, {X: 70, Y: 60}, {X: 40, Y: 60},
			{X: 40, Y: 45}, {X: 20, Y: 45}, {X: 20, Y: 25}, {X: 0, Y: 25},
		}},
		{"cross", Polygon{
			{X: 20, Y: 0}, {X: 40, Y: 0}, {X: 40, Y: 20}, {X: 60, Y: 20},
			{X: 60, Y: 40}, {X: 40, Y: 40}, {X: 40, Y: 60}, {X: 20, Y: 60},
			{X: 20, Y: 40}, {X: 0, Y: 40}, {X: 0, Y: 20}, {X: 20, Y: 20},
		}},
	}
}

// checkLPairs asserts the structural LPairs contract: i < j in range,
// every shot in at most one pair.
func checkLPairs(t *testing.T, res *Result) {
	t.Helper()
	used := make(map[int]bool)
	for _, pr := range res.LPairs {
		if pr[0] >= pr[1] || pr[0] < 0 || pr[1] >= len(res.Shots) {
			t.Fatalf("malformed pair %v over %d shots", pr, len(res.Shots))
		}
		if used[pr[0]] || used[pr[1]] {
			t.Fatalf("shot in two pairs: %v (pairs %v)", pr, res.LPairs)
		}
		used[pr[0]], used[pr[1]] = true, true
	}
}

// TestLShotSuiteGate is the CI gate of the L-shape evaluation protocol
// (EXPERIMENTS.md, scripts/check.sh): on every suite shape, mbf-l must
// write in no more flashes than mbf writes shots, at no more CD
// violations — the never-worse guarantee of the matching pass.
func TestLShotSuiteGate(t *testing.T) {
	totalShots, totalFlashes := 0, 0
	for _, sh := range lShapeSuite() {
		sh := sh
		t.Run(sh.Name, func(t *testing.T) {
			prob, err := NewProblem(sh.Poly, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			base, err := prob.Fracture(MethodMBF, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := prob.Fracture(MethodMBFL, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkLPairs(t, res)
			if res.FlashCount() > base.ShotCount() {
				t.Errorf("mbf-l flashes %d > mbf shots %d", res.FlashCount(), base.ShotCount())
			}
			if res.FailingPixels() > base.FailingPixels() {
				t.Errorf("mbf-l fail %d > mbf fail %d", res.FailingPixels(), base.FailingPixels())
			}
			totalShots += base.ShotCount()
			totalFlashes += res.FlashCount()
			t.Logf("%s: mbf %d shots (fail %d) → mbf-l %d flashes, %d pairs (fail %d)",
				sh.Name, base.ShotCount(), base.FailingPixels(),
				res.FlashCount(), len(res.LPairs), res.FailingPixels())
		})
	}
	t.Logf("suite total: %d shots → %d flashes (%.0f%% reduction)",
		totalShots, totalFlashes, 100*(1-float64(totalFlashes)/float64(totalShots)))
}

// BenchmarkLShapeSuite measures the L-shape evaluation protocol's
// headline numbers: flashes and CD violations of mbf-l vs the
// rectangle-only mbf baseline over the whole suite, reported as custom
// benchmark metrics for scripts/benchstat.sh.
func BenchmarkLShapeSuite(b *testing.B) {
	suite := lShapeSuite()
	probs := make([]*Problem, len(suite))
	for i, sh := range suite {
		p, err := NewProblem(sh.Poly, DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		probs[i] = p
	}
	b.ResetTimer()
	var shots, flashes, baseFail, lFail int
	for i := 0; i < b.N; i++ {
		shots, flashes, baseFail, lFail = 0, 0, 0, 0
		for _, p := range probs {
			base, err := p.Fracture(MethodMBF, nil)
			if err != nil {
				b.Fatal(err)
			}
			res, err := p.Fracture(MethodMBFL, nil)
			if err != nil {
				b.Fatal(err)
			}
			shots += base.ShotCount()
			flashes += res.FlashCount()
			baseFail += base.FailingPixels()
			lFail += res.FailingPixels()
		}
	}
	b.ReportMetric(float64(shots), "rect-shots/op")
	b.ReportMetric(float64(flashes), "flashes/op")
	b.ReportMetric(100*(1-float64(flashes)/float64(shots)), "%reduction/op")
	b.ReportMetric(float64(baseFail), "rect-fail/op")
	b.ReportMetric(float64(lFail), "l-fail/op")
	if flashes > shots || lFail > baseFail {
		b.Fatalf("gate violated: %d flashes vs %d shots, fail %d vs %d", flashes, shots, lFail, baseFail)
	}
}

// TestLShotEngineDeterminism pins the stitch contract for paired
// solutions: a multi-region mbf-l run returns identical shots AND
// identical pair index lists regardless of the Workers setting.
func TestLShotEngineDeterminism(t *testing.T) {
	// three far-apart copies of an L: well beyond the interaction
	// radius, so the engine plans three independent regions
	mkL := func(dx, dy float64) Polygon {
		return Polygon{
			{X: dx, Y: dy}, {X: dx + 50, Y: dy}, {X: dx + 50, Y: dy + 16},
			{X: dx + 16, Y: dy + 16}, {X: dx + 16, Y: dy + 50}, {X: dx, Y: dy + 50},
		}
	}
	prob, err := NewMultiProblem([]Polygon{mkL(0, 0), mkL(200, 0), mkL(0, 200)}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		res, err := prob.Fracture(MethodMBFL, &Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Regions != 3 {
			t.Fatalf("planned %d regions, want 3", res.Regions)
		}
		checkLPairs(t, res)
		if ref == nil {
			ref = res
			if len(ref.LPairs) == 0 {
				t.Fatal("no L-pairs on a pure L suite instance")
			}
			continue
		}
		if fmt.Sprint(res.Shots) != fmt.Sprint(ref.Shots) {
			t.Errorf("workers=%d: shot list differs from workers=1", workers)
		}
		if fmt.Sprint(res.LPairs) != fmt.Sprint(ref.LPairs) {
			t.Errorf("workers=%d: pairs %v != workers=1 pairs %v", workers, res.LPairs, ref.LPairs)
		}
		if res.FailingPixels() != ref.FailingPixels() {
			t.Errorf("workers=%d: fail %d != %d", workers, res.FailingPixels(), ref.FailingPixels())
		}
	}
}

// checkLShapeMethod fractures poly with MethodLShape through the
// facade and pins its rectangle and flash counts.
func checkLShapeMethod(t *testing.T, poly Polygon, rects, flashes int) {
	t.Helper()
	prob, err := NewProblem(poly, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prob.Fracture(MethodLShape, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkLPairs(t, res)
	if res.ShotCount() != rects || res.FlashCount() != flashes {
		t.Errorf("%d rectangles in %d flashes, want %d in %d",
			res.ShotCount(), res.FlashCount(), rects, flashes)
	}
	// non-model-based fracture: corner rounding violations only
	if res.FailOff != 0 {
		t.Errorf("overdose from a partition-based fracture: %d Poff pixels", res.FailOff)
	}
}

// TestFractureLShapeMethodTarget: an L target's two partition
// rectangles pair into one flash.
func TestFractureLShapeMethodTarget(t *testing.T) {
	checkLShapeMethod(t, Polygon{
		{X: 0, Y: 0}, {X: 120, Y: 0}, {X: 120, Y: 50},
		{X: 50, Y: 50}, {X: 50, Y: 120}, {X: 0, Y: 120},
	}, 2, 1)
}

// TestFractureLShapeMethodStaircase: a staircase's four partition
// rectangles pair into two flashes.
func TestFractureLShapeMethodStaircase(t *testing.T) {
	checkLShapeMethod(t, Polygon{
		{X: 0, Y: 0}, {X: 80, Y: 0}, {X: 80, Y: 20}, {X: 60, Y: 20},
		{X: 60, Y: 40}, {X: 40, Y: 40}, {X: 40, Y: 60}, {X: 20, Y: 60},
		{X: 20, Y: 80}, {X: 0, Y: 80},
	}, 4, 2)
}

// TestLShapeSuiteFlashTotals pins the MethodLShape flash totals over
// the paper's two benchmark tables (EXPERIMENTS.md), curvilinear ILT
// clips included: maximum matching of the partition rectangles writes
// Table 2 in 200 flashes and Table 3 in 142.
func TestLShapeSuiteFlashTotals(t *testing.T) {
	params := DefaultParams()
	for _, tc := range []struct {
		name  string
		suite []Benchmark
		want  int
	}{
		{"table2", ILTSuite(), 200},
		{"table3", GeneratedSuite(params), 142},
	} {
		total := 0
		for _, b := range tc.suite {
			prob, err := NewProblem(b.Target, params)
			if err != nil {
				t.Fatal(err)
			}
			res, err := prob.Fracture(MethodLShape, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkLPairs(t, res)
			total += res.FlashCount()
		}
		if total != tc.want {
			t.Errorf("%s: %d lshape flashes, want %d", tc.name, total, tc.want)
		}
	}
}
