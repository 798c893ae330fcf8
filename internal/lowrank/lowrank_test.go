package lowrank

import (
	"math"
	"testing"

	"trimgrad/internal/vecmath"
	"trimgrad/internal/xrand"
)

// lowRankMatrix builds an exactly rank-r matrix with geometrically
// decaying singular values.
func lowRankMatrix(seed uint64, rows, cols, r int) Matrix {
	rng := xrand.New(seed)
	m := NewMatrix(rows, cols)
	for k := 0; k < r; k++ {
		scale := math.Pow(0.5, float64(k)) // decaying spectrum
		u := make([]float64, rows)
		v := make([]float64, cols)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Data[i*cols+j] += float32(scale * u[i] * v[j])
			}
		}
	}
	return m
}

func nmseMat(a, b Matrix) float64 { return vecmath.NMSE(a.Data, b.Data) }

func TestMatMulKnown(t *testing.T) {
	a := Matrix{Rows: 2, Cols: 2, Data: []float32{1, 2, 3, 4}}
	b := Matrix{Rows: 2, Cols: 2, Data: []float32{5, 6, 7, 8}}
	c := matMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("matmul = %v", c.Data)
		}
	}
}

func TestTranspose(t *testing.T) {
	a := Matrix{Rows: 2, Cols: 3, Data: []float32{1, 2, 3, 4, 5, 6}}
	at := transpose(a)
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("transpose = %+v", at)
	}
}

func TestOrthonormalize(t *testing.T) {
	rng := xrand.New(1)
	m := NewMatrix(20, 4)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	orthonormalize(m)
	for j := 0; j < 4; j++ {
		for k := 0; k <= j; k++ {
			var dot float64
			for i := 0; i < m.Rows; i++ {
				dot += float64(m.At(i, j)) * float64(m.At(i, k))
			}
			want := 0.0
			if j == k {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-4 {
				t.Fatalf("col %d·col %d = %v, want %v", j, k, dot, want)
			}
		}
	}
}

func TestCompressRecoverExactLowRank(t *testing.T) {
	// A genuinely rank-2 matrix must be recovered almost exactly by a
	// rank-2 compressor after a couple of warm-started iterations.
	m := lowRankMatrix(2, 24, 16, 2)
	c := NewCompressor(2, 7)
	var f Factors
	for iter := 0; iter < 4; iter++ {
		f = c.Compress(m)
	}
	rec := Decode(f, 2)
	if nm := nmseMat(m, rec); nm > 1e-3 {
		t.Errorf("rank-2 recovery NMSE = %g", nm)
	}
}

func TestRankPrefixMonotone(t *testing.T) {
	// §5.3's requirement: decoding from a prefix of ranks must degrade
	// monotonically — rank k+1 is never worse than rank k.
	m := lowRankMatrix(3, 32, 24, 6)
	c := NewCompressor(6, 9)
	var f Factors
	for iter := 0; iter < 5; iter++ {
		f = c.Compress(m)
	}
	prev := math.Inf(1)
	for r := 1; r <= 6; r++ {
		nm := nmseMat(m, Decode(f, r))
		if nm > prev+1e-6 {
			t.Errorf("rank %d NMSE %g worse than rank %d's %g", r, nm, r-1, prev)
		}
		prev = nm
	}
	// The full-rank decode of a rank-6 matrix should be excellent.
	if prev > 0.01 {
		t.Errorf("full-rank NMSE = %g", prev)
	}
}

func TestRanksOrderedByEnergy(t *testing.T) {
	m := lowRankMatrix(4, 32, 24, 4)
	c := NewCompressor(4, 11)
	f := c.Compress(m)
	prev := math.Inf(1)
	for j := 0; j < f.Q.Cols; j++ {
		var e float64
		for i := 0; i < f.Q.Rows; i++ {
			v := float64(f.Q.At(i, j))
			e += v * v
		}
		if e > prev+1e-6 {
			t.Errorf("rank %d energy %g exceeds rank %d's %g", j, e, j-1, prev)
		}
		prev = e
	}
}

func TestErrorFeedbackConverges(t *testing.T) {
	// Compressing the SAME matrix repeatedly with EF must pass all its
	// mass through: the cumulative decoded sum approaches round·M even
	// for a full-rank target compressed at rank 1.
	rng := xrand.New(5)
	m := NewMatrix(12, 10)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	c := NewCompressor(1, 13)
	acc := NewMatrix(12, 10)
	const rounds = 60
	for r := 0; r < rounds; r++ {
		f := c.Compress(m)
		dec := Decode(f, 1)
		for i := range acc.Data {
			acc.Data[i] += dec.Data[i]
		}
	}
	for i := range acc.Data {
		acc.Data[i] /= rounds
	}
	if cos := vecmath.CosineSimilarity(m.Data, acc.Data); cos < 0.9 {
		t.Errorf("EF cumulative direction cos = %v", cos)
	}
}

func TestFactorBytes(t *testing.T) {
	f := Factors{P: NewMatrix(10, 4), Q: NewMatrix(8, 4)}
	if got := f.Bytes(2); got != 4*2*(10+8) {
		t.Errorf("Bytes(2) = %d", got)
	}
	if got := f.Bytes(99); got != 4*4*(10+8) {
		t.Errorf("Bytes clamps: %d", got)
	}
}

func TestDecodeClamps(t *testing.T) {
	m := lowRankMatrix(6, 8, 6, 2)
	c := NewCompressor(2, 3)
	f := c.Compress(m)
	for _, v := range Decode(f, -1).Data {
		if v != 0 {
			t.Fatal("rank -1 should decode to zero")
		}
	}
	_ = Decode(f, 100) // must not panic
}

func TestCompressorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank 0 should panic")
		}
	}()
	NewCompressor(0, 1)
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set")
	}
	if m.Data[1*3+2] != 7 {
		t.Fatalf("Data = %v, want row-major with 7 at (1,2)", m.Data)
	}
}
