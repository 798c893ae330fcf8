// Package par is a poolownership fixture for scratch slices: Float32s
// draws a pooled slice, PutFloat32s recycles it, and every acquisition below must
// reach exactly one release on every path.
package par

var free [][]float32

// Float32s is the acquisition point the checker tracks.
func Float32s(n int) []float32 { return make([]float32, n) }

// PutFloat32s is the root sink; its body is the trusted boundary.
func PutFloat32s(b []float32) {
	if b == nil {
		return
	}
	free = append(free, b)
}

// frame is long-lived storage; stashing a scratch slice in it without an
// owner annotation is the escaped-scratch case.
type frame struct {
	payload []float32
}

func escaped() *frame {
	buf := Float32s(64)
	return &frame{payload: buf} // want "escapes: stored in a composite literal"
}

func appended(frames [][]float32) [][]float32 {
	buf := Float32s(32)
	return append(frames, buf) // want "escapes: appended to a slice"
}

func partialPut(n int) {
	buf := Float32s(n) // want "released on some paths but not all"
	if n > 4 {
		PutFloat32s(buf)
	}
}

func doublePut() {
	buf := Float32s(8)
	defer PutFloat32s(buf)
	PutFloat32s(buf) // want "released again"
}

func useAfterPut() int {
	buf := Float32s(8)
	PutFloat32s(buf)
	return len(buf) // want "use of scratch slice .* after release"
}

// deferPut is the canonical clean shape: acquire, defer the release,
// work with the slice until return.
func deferPut() int {
	buf := Float32s(32)
	defer PutFloat32s(buf)
	return len(buf)
}

// build transfers the slice to the caller; re-slicing keeps the same
// underlying allocation, so the obligation follows the subslice out.
func build() []float32 {
	buf := Float32s(16)
	buf = buf[:8]
	return buf
}
