//go:build race

package hublabel

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// share of what it is handed, so allocation counts are not meaningful.
const raceEnabled = true
