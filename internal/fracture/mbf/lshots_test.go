package mbf

import (
	"fmt"
	"testing"

	"maskfrac/internal/geom"
)

// checkPairRects pins the pairs the "lshape" method's matcher forms on
// a small rectangle partition.
func checkPairRects(t *testing.T, rects []geom.Rect, want [][2]int) {
	t.Helper()
	if got := pairRects(rects); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pairs %v, want %v", got, want)
	}
}

func TestPairRectsSimpleL(t *testing.T) {
	checkPairRects(t, []geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 4},
		{X0: 0, Y0: 4, X1: 4, Y1: 10},
	}, [][2]int{{0, 1}})
}

// TestPairRectsLeftover: an unpairable rectangle stays a flash of its own.
func TestPairRectsLeftover(t *testing.T) {
	checkPairRects(t, []geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 4},
		{X0: 0, Y0: 4, X1: 4, Y1: 10},
		{X0: 50, Y0: 50, X1: 60, Y1: 60}, // isolated
	}, [][2]int{{0, 1}})
}

// TestPairRectsNeverReusesRect: pairs are disjoint even where one
// rectangle makes an L with two others.
func TestPairRectsNeverReusesRect(t *testing.T) {
	// a plus-sign partition: every bar/arm union is a T, no L
	checkPairRects(t, []geom.Rect{
		{X0: 0, Y0: 4, X1: 12, Y1: 8}, // horizontal bar
		{X0: 4, Y0: 0, X1: 8, Y1: 4},  // bottom arm
		{X0: 4, Y0: 8, X1: 8, Y1: 12}, // top arm
	}, nil)
	// a Z partition: the bar makes an L with either arm but can join
	// only one of them
	checkPairRects(t, []geom.Rect{
		{X0: 0, Y0: 4, X1: 12, Y1: 8},  // horizontal bar
		{X0: 0, Y0: 0, X1: 4, Y1: 4},   // bottom-left arm
		{X0: 8, Y0: 8, X1: 12, Y1: 12}, // top-right arm
	}, [][2]int{{0, 1}})
}
