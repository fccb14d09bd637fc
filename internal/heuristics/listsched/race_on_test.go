//go:build race

package listsched_test

// raceSlowdown scales wall-time bounds in tests: the race detector
// slows the scheduling loops about tenfold.
const raceSlowdown = 10
