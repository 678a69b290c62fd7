//go:build race

package trace

// raceEnabled reports whether the race detector is on, under which
// allocation counts differ.
const raceEnabled = true
