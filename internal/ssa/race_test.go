//go:build race

package ssa_test

// raceEnabled reports a build with the race detector, whose sync.Pool
// drops a random share of Puts.
const raceEnabled = true
