//go:build race

package session

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a share of what is put back, so allocation counts are not exact.
const raceEnabled = true
