//go:build !race

package ssa_test

const raceEnabled = false
