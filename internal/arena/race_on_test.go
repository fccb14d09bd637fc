//go:build race

package arena

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops items at random by design, so a pooled steady state
// can allocate and allocation ceilings do not hold.
const raceEnabled = true
