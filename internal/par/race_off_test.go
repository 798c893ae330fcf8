//go:build !race

package par

// See race_on_test.go.
const raceDetectorEnabled = false
