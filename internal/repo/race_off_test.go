//go:build !race

package repo

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
