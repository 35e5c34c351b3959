package ebeam

import (
	"math"
	"math/rand"
	"testing"
)

// TestEdgeProfiles32MatchesReference is the randomized strip property
// test for the float32 kernel: for both model shapes it samples random
// strip geometries (origin, pitch, window offset/length, edge pair) and
// asserts every sample agrees with the float64 EdgeProfiles reference
// within ProfileTol32, reporting the first diverging strip coordinate.
func TestEdgeProfiles32MatchesReference(t *testing.T) {
	models := map[string]*Model{
		"single": NewModel(12),
		"double": NewDoubleGaussian(10, 120, 0.5),
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			ref := make([]float64, 0, 512)
			got := make([]float32, 0, 512)
			for seq := 0; seq < 120; seq++ {
				c := rng.Intn(m.Components())
				sigma := m.comps[c].sigma
				t0 := (rng.Float64() - 0.5) * 200
				pitch := 0.5 + rng.Float64()*2*sigma // sub-pixel ramps through multi-σ pitches
				i0 := rng.Intn(64) - 32
				n := 1 + rng.Intn(512)
				// place edges so strips cover interior, clamp boundary,
				// and fully-saturated cases
				a := t0 + (rng.Float64()*float64(n)-8)*pitch
				b := a + rng.Float64()*6*sigma
				ref = append(ref[:0], make([]float64, n)...)
				got = append(got[:0], make([]float32, n)...)
				m.EdgeProfiles(ref, c, t0, pitch, i0, a, b)
				m.EdgeProfiles32(got, c, t0, pitch, i0, a, b)
				for i := range ref {
					if d := math.Abs(float64(got[i]) - ref[i]); d > ProfileTol32 {
						t.Fatalf("seq %d: component %d (σ=%g) strip t0=%g pitch=%g i0=%d edges (%g,%g): "+
							"first divergence at pixel %d (t=%g): float32 %v vs float64 %v (|Δ|=%.3g > %g)",
							seq, c, sigma, t0, pitch, i0, a, b,
							i0+i, t0+(float64(i0+i)+0.5)*pitch, got[i], ref[i], d, ProfileTol32)
					}
				}
			}
		})
	}
}

// TestEdgeProfiles32WindowExactness pins the kernel's exactness
// contract: the same absolute pixel filled through two different
// (i0, len) windows must produce bit-identical float32 values, since
// the incremental evaluator relies on add/remove strips cancelling a
// shot's accumulated dose exactly.
func TestEdgeProfiles32WindowExactness(t *testing.T) {
	m := NewDoubleGaussian(10, 120, 0.5)
	rng := rand.New(rand.NewSource(9))
	for seq := 0; seq < 60; seq++ {
		c := rng.Intn(m.Components())
		t0 := (rng.Float64() - 0.5) * 100
		pitch := 0.5 + rng.Float64()*10
		a := t0 + rng.Float64()*80
		b := a + rng.Float64()*60
		// a wide window and a shifted, shorter one overlapping it
		wide := make([]float32, 400)
		m.EdgeProfiles32(wide, c, t0, pitch, -50, a, b)
		off := rng.Intn(200)
		n := 1 + rng.Intn(400-off)
		sub := make([]float32, n)
		m.EdgeProfiles32(sub, c, t0, pitch, -50+off, a, b)
		for i := range sub {
			if sub[i] != wide[off+i] {
				t.Fatalf("seq %d: pixel %d differs across windows: %v (sub) vs %v (wide)",
					seq, -50+off+i, sub[i], wide[off+i])
			}
		}
	}
}

// TestSetProfileCheck verifies the toggle semantics and that a checked
// fill passes cleanly (a divergence would panic inside EdgeProfiles32).
func TestSetProfileCheck(t *testing.T) {
	prev := SetProfileCheck(true)
	defer SetProfileCheck(prev)
	m := NewDoubleGaussian(10, 120, 0.5)
	dst := make([]float32, 256)
	m.EdgeProfiles32(dst, 1, -30, 1.25, -7, 3, 95)
	if on := SetProfileCheck(false); !on {
		t.Fatal("SetProfileCheck(true) did not stick")
	}
	if on := SetProfileCheck(prev); on {
		t.Fatal("SetProfileCheck(false) did not stick")
	}
}

// applyProfile32Ref is applyProfile32 as it was before the constant
// runs: every sample outside the interpolation ramp goes through
// applySample32. TestApplyProfile32ConstantRuns holds the fast path to
// it bit for bit.
func (c *component) applyProfile32Ref(dst []float32, t0, pitch float64, i0 int, e float64, sign int) {
	n := len(dst)
	s3 := 3 * c.sigma
	step := c.step
	mLo := int(math.Ceil((1*step-s3+e-t0)/pitch - 0.5))
	mHi := int(math.Floor((float64(lutCells-1)*step-s3+e-t0)/pitch - 0.5))
	lo := min(max(mLo-i0, 0), n)
	hi := min(max(mHi-i0+1, lo), n)
	lut := c.lut32
	for i := 0; i < lo; i++ {
		applySample32(dst, lut, i, t0, pitch, i0, e, s3, step, sign)
	}
	for i := hi; i < n; i++ {
		applySample32(dst, lut, i, t0, pitch, i0, e, s3, step, sign)
	}
	ramp := dst[lo:hi]
	if sign > 0 {
		for i := range ramp {
			u := (t0 + (float64(i0+lo+i)+0.5)*pitch - e + s3) / step
			k := int(u)
			f := float32(u - float64(k))
			ramp[i] = lut[k] + f*(lut[k+1]-lut[k])
		}
	} else {
		for i := range ramp {
			u := (t0 + (float64(i0+lo+i)+0.5)*pitch - e + s3) / step
			k := int(u)
			f := float32(u - float64(k))
			ramp[i] -= lut[k] + f*(lut[k+1]-lut[k])
		}
	}
}

// TestApplyProfile32ConstantRuns pins the constant-run fast path of
// applyProfile32 to the per-sample reference loop bit for bit: random
// windows (before, across and past both clamp boundaries), both
// components of the two-Gaussian model, non-unit pitches, both signs
// applied in sequence onto the same strip, and edges placed so that a
// sample lands exactly on u = 0 or u = lutCells.
func TestApplyProfile32ConstantRuns(t *testing.T) {
	m := NewDoubleGaussian(6.25, 40, 0.6)
	rng := rand.New(rand.NewSource(16))
	for seq := 0; seq < 4000; seq++ {
		c := &m.comps[seq%2]
		pitch := []float64{1, 0.5, 0.37, 2.5, 7}[rng.Intn(5)]
		t0 := math.Round((rng.Float64()-0.5)*400) * pitch
		if seq%3 == 0 {
			t0 += (rng.Float64() - 0.5) * pitch
		}
		i0 := rng.Intn(200) - 100
		n := 1 + rng.Intn(300)
		span := float64(n) * pitch
		// window-relative edges from well before the strip to well past it
		a := t0 + float64(i0)*pitch + (rng.Float64()*1.6-0.3)*span
		b := a + rng.Float64()*span
		switch seq % 5 {
		case 1:
			// a sample exactly at u = 0 of the leading edge: t − a = −3σ
			a = t0 + (float64(i0+rng.Intn(n))+0.5)*pitch + 3*c.sigma
		case 2:
			// a sample exactly at u = lutCells of the trailing edge
			b = t0 + (float64(i0+rng.Intn(n))+0.5)*pitch - 3*c.sigma
		}
		got := make([]float32, n)
		want := make([]float32, n)
		for i := range got {
			got[i] = float32(rng.NormFloat64())
			want[i] = got[i]
		}
		c.applyProfile32(got, t0, pitch, i0, a, +1)
		c.applyProfile32Ref(want, t0, pitch, i0, a, +1)
		c.applyProfile32(got, t0, pitch, i0, b, -1)
		c.applyProfile32Ref(want, t0, pitch, i0, b, -1)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("seq %d: σ=%g pitch=%g t0=%g i0=%d n=%d edges (%g, %g): sample %d is %v (%#x), reference %v (%#x)",
					seq, c.sigma, pitch, t0, i0, n, a, b, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}
