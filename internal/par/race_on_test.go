//go:build race

package par

// raceDetectorEnabled lets the steady-state allocation test skip itself
// under `go test -race`, where sync.Pool drops a share of its Puts on
// purpose and the count it bounds is not a property of this package.
const raceDetectorEnabled = true
