//go:build race

package dag

// raceSlowdown scales wall-time bounds in tests: the race detector
// slows the wire decode about twelvefold.
const raceSlowdown = 10
