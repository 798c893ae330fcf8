package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestReseedResetsStream(t *testing.T) {
	a := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = a.Uint64()
	}
	a.Reseed(7)
	for i := range first {
		if got := a.Uint64(); got != first[i] {
			t.Fatalf("after Reseed, step %d: got %x want %x", i, got, first[i])
		}
	}
}

func TestReseedClearsGaussianSpare(t *testing.T) {
	a := New(1)
	b := New(1)
	a.NormFloat64() // leaves a buffered spare in a
	a.Reseed(99)
	b.Reseed(99)
	if x, y := a.NormFloat64(), b.NormFloat64(); x != y {
		t.Fatalf("spare leaked across Reseed: %v vs %v", x, y)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSeedOrderSensitive(t *testing.T) {
	if Seed(1, 2) == Seed(2, 1) {
		t.Fatal("Seed must be order sensitive")
	}
	if Seed(0) == Seed(0, 0) {
		t.Fatal("Seed must be length sensitive")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Uniform(-2, 2)
		if v < -2 || v >= 2 {
			t.Fatalf("Uniform out of range: %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("uniform mean = %v, want ~0", mean)
	}
	// Var of U(-2,2) = (4)^2/12 = 4/3.
	if math.Abs(variance-4.0/3.0) > 0.05 {
		t.Errorf("uniform variance = %v, want ~1.333", variance)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpMoments(t *testing.T) {
	r := New(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential sample negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean = %v, want ~1", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(8)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(9).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(10)
	const buckets, n = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := n / buckets
	for b, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("bucket %d: count %d deviates >5%% from %d", b, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for _, n := range []int{0, 1, 2, 17, 256} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	r := New(15)
	a := r.Derive(1)
	b := r.Derive(2)
	if a.Uint64() == b.Uint64() {
		t.Fatal("derived streams with different labels should differ")
	}
	// Derive must not disturb the parent.
	r1 := New(15)
	r2 := New(15)
	r1.Derive(99)
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("Derive disturbed parent state")
	}
}

func TestQuickSeedDeterministic(t *testing.T) {
	f := func(parts []uint64) bool {
		return Seed(parts...) == Seed(parts...)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickSeedFromSplits checks Seed(a..., b...) == SeedFrom(Seed(a...),
// b...) for random tuples split at a random point, the ends included.
func TestQuickSeedFromSplits(t *testing.T) {
	f := func(parts []uint64, at uint8) bool {
		k := int(at) % (len(parts) + 1)
		return Seed(parts...) == SeedFrom(Seed(parts[:k]...), parts[k:]...)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickFloat64InRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 64; i++ {
			if v := r.Float64(); v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%x,%x) = (%x,%x), want (%x,%x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Float64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}
