//go:build race

package core

// raceEnabled reports whether the race detector is on. It makes sync.Pool
// drop a random quarter of the items put into it, so a pooled round trip
// may rebuild a machine.
const raceEnabled = true
