package fwht

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

func randomRow(seed uint64, n int) []float32 {
	r := xrand.New(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func TestTransformKnownValues(t *testing.T) {
	// H_2 * [a b] = [a+b, a-b].
	v := []float32{3, 1}
	Transform(v)
	if v[0] != 4 || v[1] != 2 {
		t.Fatalf("H2: got %v, want [4 2]", v)
	}
	// H_4 on a unit impulse spreads uniformly.
	u := []float32{1, 0, 0, 0}
	Transform(u)
	for i, x := range u {
		if x != 1 {
			t.Fatalf("H4·e0[%d] = %v, want 1", i, x)
		}
	}
}

func TestTransformInvolution(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64, 1024} {
		v := randomRow(uint64(n), n)
		orig := append([]float32(nil), v...)
		Transform(v)
		Transform(v)
		for i := range v {
			if math.Abs(float64(v[i])-float64(orig[i])*float64(n)) > 1e-2*float64(n) {
				t.Fatalf("n=%d: H²x ≠ n·x at %d: %v vs %v", n, i, v[i], orig[i]*float32(n))
			}
		}
	}
}

func TestNormalizedIsOrthonormal(t *testing.T) {
	v := randomRow(1, 4096)
	before := vecmath.L2Norm(v)
	Normalized(v)
	after := vecmath.L2Norm(v)
	if math.Abs(before-after) > 1e-3*before {
		t.Fatalf("norm changed: %v -> %v", before, after)
	}
}

func TestTransformPanicsOnNonPow2(t *testing.T) {
	for _, n := range []int{0, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d: expected panic", n)
				}
			}()
			Transform(make([]float32, n))
		}()
	}
}

func TestRandomRotateRoundTrip(t *testing.T) {
	for _, n := range []int{2, 256, 1 << 12} {
		v := randomRow(uint64(n)+7, n)
		orig := append([]float32(nil), v...)
		seed := xrand.Seed(3, uint64(n))
		RandomRotate(v, seed)
		InverseRandomRotate(v, seed)
		if nm := vecmath.NMSE(orig, v); nm > 1e-9 {
			t.Fatalf("n=%d: round-trip NMSE = %v", n, nm)
		}
	}
}

func TestRandomRotatePreservesNorm(t *testing.T) {
	v := randomRow(5, 1<<10)
	before := vecmath.L2Norm(v)
	RandomRotate(v, 99)
	after := vecmath.L2Norm(v)
	if math.Abs(before-after) > 1e-3*before {
		t.Fatalf("RHT not isometric: %v -> %v", before, after)
	}
}

func TestRotatedCoordinatesCentered(t *testing.T) {
	// After RHT, coordinates should be symmetric around zero even when the
	// input is heavily biased — this is the property that makes the 1-bit
	// sign head meaningful (§3.2).
	n := 1 << 12
	v := make([]float32, n)
	for i := range v {
		v[i] = 1 // constant, maximally asymmetric input
	}
	RandomRotate(v, 123)
	mean := vecmath.Mean(v)
	std := vecmath.Std(v)
	if math.Abs(mean) > 0.05*std {
		t.Fatalf("rotated mean %v not ≪ std %v", mean, std)
	}
	pos := 0
	for _, x := range v {
		if x > 0 {
			pos++
		}
	}
	if pos < n*4/10 || pos > n*6/10 {
		t.Fatalf("sign balance off: %d/%d positive", pos, n)
	}
}

func TestDifferentSeedsRotateDifferently(t *testing.T) {
	a := randomRow(6, 256)
	b := append([]float32(nil), a...)
	RandomRotate(a, 1)
	RandomRotate(b, 2)
	if vecmath.NMSE(a, b) < 0.1 {
		t.Fatal("different seeds should give very different rotations")
	}
}

func TestSplitJoinRows(t *testing.T) {
	v := randomRow(7, 1000)
	rows := SplitRows(v, 256)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if len(r) != 256 {
			t.Fatalf("row length %d", len(r))
		}
	}
	// Padding is zeros.
	for i := 1000 - 3*256; i < 256; i++ {
		if rows[3][i] != 0 {
			t.Fatalf("padding not zero at %d", i)
		}
	}
	back := slices.Concat(rows...)[:1000]
	if nm := vecmath.NMSE(v, back); nm != 0 {
		t.Fatalf("split/join NMSE = %v", nm)
	}
}

func TestSplitRowsEmpty(t *testing.T) {
	if rows := SplitRows(nil, 64); rows != nil {
		t.Fatal("SplitRows(nil) should be nil")
	}
}

func TestSplitRowsNoAlias(t *testing.T) {
	v := []float32{1, 2, 3, 4}
	rows := SplitRows(v, 4)
	rows[0][0] = 99
	if v[0] != 1 {
		t.Fatal("SplitRows must not alias input")
	}
}

func TestUnbiasedScale(t *testing.T) {
	v := randomRow(8, 1<<10)
	rot := append([]float32(nil), v...)
	RandomRotate(rot, 55)
	f := UnbiasedScale(v, rot)
	if f <= 0 {
		t.Fatalf("scale = %v, want > 0", f)
	}
	// For standard normal coordinates, E|r| = σ√(2/π), so
	// f = nσ²/(nσ√(2/π)) = σ·√(π/2) ≈ 1.2533σ. σ≈1 here.
	if f < 0.8 || f > 1.8 {
		t.Fatalf("scale = %v, expected ≈1.25 for unit-normal rows", f)
	}
	if UnbiasedScale(make([]float32, 4), make([]float32, 4)) != 0 {
		t.Fatal("all-zero row should have scale 0")
	}
}

func TestSignDecodeIsUnbiasedOverSeeds(t *testing.T) {
	// Core DRIVE property: averaging IRHT(f·sign(RHT(v))) over many seeds
	// approaches v. This is the mechanism that lets heavily-trimmed
	// gradients still aggregate to the right direction.
	n := 1 << 8
	v := randomRow(9, n)
	mean := make([]float32, n)
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		seed := xrand.Seed(77, uint64(trial))
		rot := append([]float32(nil), v...)
		RandomRotate(rot, seed)
		f := float32(UnbiasedScale(v, rot))
		dec := make([]float32, n)
		for i, r := range rot {
			if r >= 0 {
				dec[i] = f
			} else {
				dec[i] = -f
			}
		}
		InverseRandomRotate(dec, seed)
		vecmath.Add(mean, dec)
	}
	vecmath.Scale(mean, 1.0/trials)
	cos := vecmath.CosineSimilarity(v, mean)
	if cos < 0.95 {
		t.Fatalf("mean decoded direction cos = %v, want ≥0.95", cos)
	}
	if nm := vecmath.NMSE(v, mean); nm > 0.1 {
		t.Fatalf("mean decoded NMSE = %v, want small", nm)
	}
}

func TestQuickRotateRoundTrip(t *testing.T) {
	f := func(seed uint64, sizeExp uint8) bool {
		n := 1 << (sizeExp%10 + 1)
		v := randomRow(seed, n)
		orig := append([]float32(nil), v...)
		RandomRotate(v, seed)
		InverseRandomRotate(v, seed)
		return vecmath.NMSE(orig, v) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTransform32K(b *testing.B) {
	v := randomRow(1, DefaultRowSize)
	b.SetBytes(int64(len(v) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transform(v)
	}
}

func BenchmarkRandomRotate32K(b *testing.B) {
	v := randomRow(1, DefaultRowSize)
	b.SetBytes(int64(len(v) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomRotate(v, uint64(i))
	}
}
