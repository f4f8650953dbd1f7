//go:build race

package stream

// raceEnabled reports whether the race detector is active. Its
// instrumentation of copy makes a copy compute-bound, so copies read alike
// from cache and from memory.
const raceEnabled = true
