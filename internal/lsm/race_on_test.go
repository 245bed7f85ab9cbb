//go:build race

package lsm

// raceEnabled reports that the race detector is on: sync.Pool then
// drops items at random and instrumentation allocates, so allocation
// budgets do not hold.
const raceEnabled = true
