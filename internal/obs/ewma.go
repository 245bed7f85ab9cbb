package obs

import "sync"

// EWMA is a thread-safe exponentially weighted moving average over a
// stream of float64 observations. The batching subsystem uses it to
// accumulate *observed* execution statistics — per-segment scan
// latency, predicate selectivity, statement inter-arrival gaps — so
// the planner's batched-vs-solo decision runs on what the engine
// actually measured rather than static estimates.
//
// The zero value is ready to use; it weighs samples by DefaultEWMAAlpha.
type EWMA struct {
	mu    sync.Mutex
	value float64
	count int64
}

// DefaultEWMAAlpha weights a new observation at 20%: recent behaviour
// dominates within ~10 observations while one outlier can't swing the
// average by more than a fifth.
const DefaultEWMAAlpha = 0.2

// Observe folds one sample into the average. The first observation
// seeds the value directly so the average never has to warm up from
// zero.
func (e *EWMA) Observe(v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.count == 0 {
		e.value = v
	} else {
		e.value = DefaultEWMAAlpha*v + (1-DefaultEWMAAlpha)*e.value
	}
	e.count++
}

// Value returns the current average (0 before any observation — use
// Count to distinguish "unobserved" from "observed zero").
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// Count returns how many samples have been observed.
func (e *EWMA) Count() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count
}

// ScanStats accumulates a table's observed per-segment execution
// statistics, fed by the executor on every segment scan (solo and
// shared alike) and read by the engine when deciding whether a query
// should wait for a shared-scan group or run alone.
type ScanStats struct {
	// SegLatency averages the wall seconds of one per-segment scan
	// (predicate bitset + index traversal / brute distances).
	SegLatency EWMA
	// Selectivity averages the observed qualifying fraction of
	// predicate-filtered segments.
	Selectivity EWMA
}
