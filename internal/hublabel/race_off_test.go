//go:build !race

package hublabel

const raceEnabled = false
