//go:build race

package modeld

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a share of what is put into it, so a pooled path allocates.
const raceEnabled = true
