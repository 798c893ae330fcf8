// Package lowrank implements PowerSGD-style low-rank gradient compression
// (§5.2) and the rank-ordered trimmable layout of §5.3: a gradient matrix
// M is factored as P·Qᵀ with r rank columns ordered by importance, so
// packet trimming that discards trailing columns always removes the ranks
// with the least energy.
package lowrank

import (
	"fmt"
	"math"

	"trimgrad/internal/xrand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns element (i, j).
func (m Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores element (i, j).
func (m Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// matMul returns a·b.
func matMul(a, b Matrix) Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("lowrank: %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += aik * b.At(k, j)
			}
		}
	}
	return out
}

// transpose returns Mᵀ.
func transpose(m Matrix) Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// orthonormalize runs modified Gram-Schmidt on the columns of m in place.
// Degenerate columns become zero.
func orthonormalize(m Matrix) {
	for j := 0; j < m.Cols; j++ {
		// Subtract projections on previous columns.
		for k := 0; k < j; k++ {
			var dot float64
			for i := 0; i < m.Rows; i++ {
				dot += float64(m.At(i, k)) * float64(m.At(i, j))
			}
			for i := 0; i < m.Rows; i++ {
				m.Set(i, j, m.At(i, j)-float32(dot)*m.At(i, k))
			}
		}
		var norm float64
		for i := 0; i < m.Rows; i++ {
			norm += float64(m.At(i, j)) * float64(m.At(i, j))
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			for i := 0; i < m.Rows; i++ {
				m.Set(i, j, 0)
			}
			continue
		}
		for i := 0; i < m.Rows; i++ {
			m.Set(i, j, float32(float64(m.At(i, j))/norm))
		}
	}
}

// Compressor performs rank-r PowerSGD compression with a warm-started
// query matrix and optional error feedback.
type Compressor struct {
	Rank int
	// q is the warm-start Q matrix, reused across rounds (PowerSGD's
	// single power iteration relies on it).
	q Matrix
	// resid is the error-feedback residual.
	resid []float32
	rng   *xrand.Rand
}

// NewCompressor builds a rank-r compressor seeded deterministically.
func NewCompressor(rank int, seed uint64) *Compressor {
	if rank < 1 {
		panic("lowrank: rank must be ≥ 1")
	}
	return &Compressor{Rank: rank, rng: xrand.New(seed)}
}

// Factors is one compressed gradient: M ≈ P·Qᵀ, with columns of P (and
// rows of Qᵀ) ordered by decreasing energy ‖P_col‖, so a prefix of ranks
// is always the best available approximation — the trimmable layout.
type Factors struct {
	P Matrix // Rows×Rank
	Q Matrix // Cols×Rank
}

// Bytes returns the on-wire size of r ranks of the factors.
func (f Factors) Bytes(ranks int) int {
	if ranks > f.P.Cols {
		ranks = f.P.Cols
	}
	return 4 * ranks * (f.P.Rows + f.Q.Rows)
}

// Compress factors m (with error feedback folded in) into rank-ordered
// factors and updates the residual.
func (c *Compressor) Compress(m Matrix) Factors {
	if c.resid == nil {
		c.resid = make([]float32, len(m.Data))
	}
	if len(c.resid) != len(m.Data) {
		panic("lowrank: matrix shape changed under error feedback")
	}
	work := Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float32, len(m.Data))}
	for i := range m.Data {
		work.Data[i] = m.Data[i] + c.resid[i]
	}
	if c.q.Rows != m.Cols || c.q.Cols != c.Rank {
		c.q = NewMatrix(m.Cols, c.Rank)
		for i := range c.q.Data {
			c.q.Data[i] = float32(c.rng.NormFloat64())
		}
	}
	// One power iteration: P = M·Q, orthonormalize, Q = Mᵀ·P.
	p := matMul(work, c.q)
	orthonormalize(p)
	q := matMul(transpose(work), p)
	c.q = q

	f := Factors{P: p, Q: q}
	sortRanksByEnergy(&f)
	// Residual: work − P·Qᵀ.
	approx := matMul(f.P, transpose(f.Q))
	for i := range c.resid {
		c.resid[i] = work.Data[i] - approx.Data[i]
	}
	return f
}

// sortRanksByEnergy reorders factor columns by decreasing ‖Q_col‖ (after
// orthonormalizing P, each rank's energy lives in Q).
func sortRanksByEnergy(f *Factors) {
	r := f.P.Cols
	energy := make([]float64, r)
	for j := 0; j < r; j++ {
		var s float64
		for i := 0; i < f.Q.Rows; i++ {
			v := float64(f.Q.At(i, j))
			s += v * v
		}
		energy[j] = s
	}
	order := make([]int, r)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < r; i++ {
		for j := i; j > 0 && energy[order[j]] > energy[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	permuteCols(&f.P, order)
	permuteCols(&f.Q, order)
}

func permuteCols(m *Matrix, order []int) {
	out := NewMatrix(m.Rows, m.Cols)
	for newJ, oldJ := range order {
		for i := 0; i < m.Rows; i++ {
			out.Set(i, newJ, m.At(i, oldJ))
		}
	}
	*m = out
}

// Decode reconstructs the gradient from the first ranks columns of the
// factors — exactly what a receiver can do after trimming removed the
// trailing ranks (§5.3). ranks is clamped to the factor width.
func Decode(f Factors, ranks int) Matrix {
	if ranks > f.P.Cols {
		ranks = f.P.Cols
	}
	if ranks < 0 {
		ranks = 0
	}
	p := Matrix{Rows: f.P.Rows, Cols: ranks, Data: make([]float32, f.P.Rows*ranks)}
	q := Matrix{Rows: f.Q.Rows, Cols: ranks, Data: make([]float32, f.Q.Rows*ranks)}
	for i := 0; i < f.P.Rows; i++ {
		for j := 0; j < ranks; j++ {
			p.Set(i, j, f.P.At(i, j))
		}
	}
	for i := 0; i < f.Q.Rows; i++ {
		for j := 0; j < ranks; j++ {
			q.Set(i, j, f.Q.At(i, j))
		}
	}
	return matMul(p, transpose(q))
}
