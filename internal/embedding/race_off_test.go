//go:build !race

package embedding

const raceEnabled = false
