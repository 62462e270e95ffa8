//go:build !race

package graphrnn_test

const raceEnabled = false
