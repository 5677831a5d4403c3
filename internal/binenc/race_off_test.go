//go:build !race

package binenc

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
