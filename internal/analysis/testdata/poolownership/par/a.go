// Package par is a poolownership fixture for scratch slices: Bytes draws
// a pooled slice, PutBytes recycles it, and every acquisition below must
// reach exactly one release on every path.
package par

var free [][]byte

// Bytes is the acquisition point the checker tracks.
func Bytes(n int) []byte { return make([]byte, n) }

// PutBytes is the root sink; its body is the trusted boundary.
func PutBytes(b []byte) {
	if b == nil {
		return
	}
	free = append(free, b)
}

// frame is long-lived storage; stashing a scratch slice in it without an
// owner annotation is the escaped-scratch case.
type frame struct {
	payload []byte
}

func escaped() *frame {
	buf := Bytes(64)
	return &frame{payload: buf} // want "escapes: stored in a composite literal"
}

func appended(frames [][]byte) [][]byte {
	buf := Bytes(32)
	return append(frames, buf) // want "escapes: appended to a slice"
}

func partialPut(n int) {
	buf := Bytes(n) // want "released on some paths but not all"
	if n > 4 {
		PutBytes(buf)
	}
}

func doublePut() {
	buf := Bytes(8)
	defer PutBytes(buf)
	PutBytes(buf) // want "released again"
}

func useAfterPut() int {
	buf := Bytes(8)
	PutBytes(buf)
	return len(buf) // want "use of scratch slice .* after release"
}

// deferPut is the canonical clean shape: acquire, defer the release,
// work with the slice until return.
func deferPut() int {
	buf := Bytes(32)
	defer PutBytes(buf)
	return len(buf)
}

// build transfers the slice to the caller; re-slicing keeps the same
// underlying allocation, so the obligation follows the subslice out.
func build() []byte {
	buf := Bytes(16)
	buf = buf[:8]
	return buf
}
