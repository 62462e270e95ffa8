//go:build !race

package exp

const raceEnabled = false
