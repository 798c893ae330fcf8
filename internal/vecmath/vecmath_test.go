package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"trimgrad/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumMeanStd(t *testing.T) {
	v := []float32{1, 2, 3, 4}
	if got := Sum(v); got != 10 {
		t.Errorf("Sum = %v, want 10", got)
	}
	if got := Mean(v); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	// Population std of {1,2,3,4} = sqrt(1.25).
	if got := Std(v); !almostEq(got, math.Sqrt(1.25), 1e-12) {
		t.Errorf("Std = %v, want %v", got, math.Sqrt(1.25))
	}
}

func TestEmptyInputs(t *testing.T) {
	if Sum(nil) != 0 || Mean(nil) != 0 || Std(nil) != 0 {
		t.Error("empty-slice moments should be 0")
	}
	if L1Norm(nil) != 0 || L2Norm(nil) != 0 {
		t.Error("empty-slice norms should be 0")
	}
	if TopKIndices(nil, 3) != nil {
		t.Error("TopKIndices(nil) should be nil")
	}
}

func TestNorms(t *testing.T) {
	v := []float32{3, -4}
	if got := L1Norm(v); got != 7 {
		t.Errorf("L1 = %v, want 7", got)
	}
	if got := L2Norm(v); got != 5 {
		t.Errorf("L2 = %v, want 5", got)
	}
	if got := L2NormSquared(v); got != 25 {
		t.Errorf("L2² = %v, want 25", got)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float32{1, 2, 3}, []float32{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestClip(t *testing.T) {
	v := []float32{-5, -1, 0, 1, 5}
	Clip(v, 2)
	want := []float32{-2, -1, 0, 1, 2}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("Clip: got %v, want %v", v, want)
		}
	}
}

func TestClipNegativeLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Clip([]float32{1}, -1)
}

func TestScaleAxpyAdd(t *testing.T) {
	v := []float32{1, 2}
	Scale(v, 3)
	if v[0] != 3 || v[1] != 6 {
		t.Fatalf("Scale: got %v", v)
	}
	Axpy(v, 2, []float32{1, 1})
	if v[0] != 5 || v[1] != 8 {
		t.Fatalf("Axpy: got %v", v)
	}
	Add(v, []float32{1, 1})
	if v[0] != 6 || v[1] != 9 {
		t.Fatalf("Add: got %v", v)
	}
}

func TestNMSE(t *testing.T) {
	ref := []float32{1, 2, 3}
	if got := NMSE(ref, ref); got != 0 {
		t.Errorf("NMSE(x,x) = %v, want 0", got)
	}
	est := []float32{0, 0, 0}
	if got := NMSE(ref, est); !almostEq(got, 1, 1e-12) {
		t.Errorf("NMSE(x,0) = %v, want 1", got)
	}
	if got := NMSE([]float32{0, 0}, []float32{0, 0}); got != 0 {
		t.Errorf("NMSE(0,0) = %v, want 0", got)
	}
	if got := NMSE([]float32{0, 0}, []float32{1, 0}); !math.IsInf(got, 1) {
		t.Errorf("NMSE(0,x) = %v, want +Inf", got)
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := CosineSimilarity(a, a); !almostEq(got, 1, 1e-9) {
		t.Errorf("cos(a,a) = %v, want 1", got)
	}
	if got := CosineSimilarity(a, b); !almostEq(got, 0, 1e-9) {
		t.Errorf("cos(a,b) = %v, want 0", got)
	}
	if got := CosineSimilarity(a, []float32{0, 0}); got != 0 {
		t.Errorf("cos(a,0) = %v, want 0", got)
	}
}

func TestTopKIndices(t *testing.T) {
	v := []float32{0.1, -5, 3, -0.2, 4}
	got := TopKIndices(v, 3)
	want := []int{1, 4, 2} // |-5| > |4| > |3|
	if len(got) != 3 {
		t.Fatalf("TopKIndices length = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopKIndices = %v, want %v", got, want)
		}
	}
	// k larger than len clamps.
	if got := TopKIndices(v, 99); len(got) != len(v) {
		t.Fatalf("clamped TopKIndices length = %d", len(got))
	}
}

func TestMagnitudeOrderStableTies(t *testing.T) {
	v := []float32{1, -1, 1}
	got := MagnitudeOrder(v)
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MagnitudeOrder = %v, want %v (stable ties)", got, want)
		}
	}
}

func TestPow2Helpers(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
	if !IsPow2(1) || !IsPow2(64) || IsPow2(0) || IsPow2(3) || IsPow2(-4) {
		t.Error("IsPow2 misclassified")
	}
}

func TestQuickNMSENonNegative(t *testing.T) {
	r := xrand.New(1)
	f := func(n uint8) bool {
		size := int(n%64) + 1
		ref := make([]float32, size)
		est := make([]float32, size)
		for i := range ref {
			ref[i] = float32(r.NormFloat64())
			est[i] = float32(r.NormFloat64())
		}
		return NMSE(ref, est) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickClipBounds(t *testing.T) {
	r := xrand.New(2)
	f := func(n uint8, limRaw uint16) bool {
		size := int(n % 128)
		lim := float32(limRaw) / 100
		v := make([]float32, size)
		for i := range v {
			v[i] = float32(r.NormFloat64() * 10)
		}
		Clip(v, lim)
		for _, x := range v {
			if x > lim || x < -lim {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkL2Norm32K(b *testing.B) {
	r := xrand.New(3)
	v := make([]float32, 1<<15)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += L2Norm(v)
	}
	_ = sink
}
