//go:build race

package trimgrad

// raceDetectorEnabled lets the allocation guards skip themselves under
// `go test -race`: the detector's instrumentation allocates on its own, so
// the counts they bound are a property of the uninstrumented build.
const raceDetectorEnabled = true
