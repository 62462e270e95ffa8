//go:build race

package exp

// raceEnabled reports that the race detector is on: the paper's experiments
// then run an order of magnitude slower than TestPaperShapes may take.
const raceEnabled = true
