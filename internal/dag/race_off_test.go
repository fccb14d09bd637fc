//go:build !race

package dag

// raceSlowdown scales wall-time bounds in tests; see race_on_test.go.
const raceSlowdown = 1
