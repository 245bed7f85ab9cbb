//go:build race

package server

// raceEnabled reports that the race detector is on: sync.Pool then
// drops items at random, so pooled paths allocate and steady-state
// allocation bounds do not hold.
const raceEnabled = true
