//go:build !race

package clans

// raceSlowdown scales wall-time bounds in tests; see race_on_test.go.
const raceSlowdown = 1
