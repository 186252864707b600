//go:build !race

package tokenizer

const raceEnabled = false
