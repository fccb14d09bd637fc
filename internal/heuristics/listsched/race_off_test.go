//go:build !race

package listsched_test

// raceSlowdown scales wall-time bounds in tests; see race_on_test.go.
const raceSlowdown = 1
