//go:build race

package storage

// raceEnabled reports that the race detector is on: the compiler then
// does not fuse grow-by-make-and-append into one allocation, so exact
// allocation counts do not hold.
const raceEnabled = true
