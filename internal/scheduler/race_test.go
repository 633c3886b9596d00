//go:build race

package scheduler

// raceEnabled is true in a build with the race detector, whose runtime
// allocates on its own: allocation counts read there are not the
// program's.
const raceEnabled = true
