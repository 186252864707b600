//go:build race

package server

// raceEnabled reports that the race detector is on: it allocates on its
// own account, so byte counts are not the program's.
const raceEnabled = true
