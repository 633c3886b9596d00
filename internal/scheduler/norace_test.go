//go:build !race

package scheduler

// raceEnabled is false in a build without the race detector.
const raceEnabled = false
