//go:build race

package clans

// raceSlowdown scales wall-time bounds in tests: the race detector
// slows the scheduling loops about tenfold.
const raceSlowdown = 10
