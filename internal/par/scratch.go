package par

import (
	"math/bits"
	"sync"
)

// Scratch arenas for the per-row buffers the encode/decode hot paths
// need transiently: RHT rotation copies, EDEN centroid values, packed
// row backings, an encoded row's head and tail words. Each Get hands back
// a possibly-dirty buffer of the requested length — callers must fully
// overwrite it — and each Put recycles one for the next caller. Putting
// back is optional (the GC reclaims unreturned buffers) and never required
// for correctness, so external callers of quant codecs keep ordinary
// ownership semantics.
//
// The arenas are process-global sync.Pools: concurrent Get/Put from
// pool workers is safe, and a buffer obtained by one goroutine may be
// returned by another as long as it is no longer referenced.

// scratch is one element type's arena: one pool per power-of-two size
// class, because one element type serves buffers of very different sizes at
// once (a float32 buffer is a whole-message backing or a rotation row)
// and a single pool hands the small ones to the large
// requests, which can only drop them, and the large ones to the small. A
// get allocates its class's full capacity, so whatever a class holds fits
// whatever is asked of it. A
// sync.Pool holds pointers, so a pooled slice travels in a box; the box a
// get empties waits in empty for the next put, which therefore allocates
// nothing either.
type scratch[T any] struct {
	full  [bits.UintSize]sync.Pool // *[]T; full[c] holds capacities in [2^c, 2^(c+1))
	empty sync.Pool                // *[]T
}

func (p *scratch[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1)) // the class whose every capacity is ≥ n
	if v := p.full[c].Get(); v != nil {
		box := v.(*[]T)
		s := *box
		*box = nil
		p.empty.Put(box)
		return s[:n]
	}
	return make([]T, n, 1<<c)
}

func (p *scratch[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	box, _ := p.empty.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	p.full[bits.Len(uint(cap(s)))-1].Put(box)
}

var (
	f32s scratch[float32]
	u32s scratch[uint32]
)

// Float32s returns a float32 scratch buffer of length n. Contents are
// undefined; the caller must overwrite every element it reads.
func Float32s(n int) []float32 { return f32s.get(n) }

// PutFloat32s recycles a buffer obtained from Float32s. The caller must
// not retain any reference (including subslices) after the call.
func PutFloat32s(s []float32) { f32s.put(s) }

// Uint32s returns a uint32 scratch buffer of length n. Contents are
// undefined; the caller must overwrite every element it reads.
func Uint32s(n int) []uint32 { return u32s.get(n) }

// PutUint32s recycles a buffer obtained from Uint32s.
func PutUint32s(s []uint32) { u32s.put(s) }
