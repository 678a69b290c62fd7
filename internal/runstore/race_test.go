//go:build race

package runstore

// raceEnabled reports whether the race detector is on. Under it,
// syscall.Read hands its buffer to the race runtime, so readEntry's
// stack buffer moves to the heap and allocation counts differ.
const raceEnabled = true
