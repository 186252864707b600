//go:build race

package main

// raceEnabled reports that the race detector, which slows the smoke run
// several times over, is on.
const raceEnabled = true
