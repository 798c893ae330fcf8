//go:build !race

package trimgrad

const raceDetectorEnabled = false
