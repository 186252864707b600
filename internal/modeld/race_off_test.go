//go:build !race

package modeld

const raceEnabled = false
