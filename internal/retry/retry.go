// Package retry is the fault-tolerance policy every remote call shares
// (DESIGN decision 12): a circuit breaker, a jittered exponential
// backoff and an interruptible sleep. storage.RetryStore, the VW's
// replica failover and pkg/client keep their own retry loops, since
// the errors they classify differ. It imports only the standard library.
package retry

import (
	"context"
	"math"
	"sync"
	"time"
)

// State is a breaker's position.
type State int32

const (
	Closed   State = iota // calls flow
	Open                  // calls are shed until the cooldown elapses
	HalfOpen              // one probe call at a time is let through
)

func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// Outcome is what one admitted call proved about the backend.
type Outcome uint8

const (
	// Success: the backend answered, even with an error. It closes the
	// breaker and resets the failure count.
	Success Outcome = iota
	// Failure: a down-class error, counted toward opening the breaker;
	// a failed probe reopens it.
	Failure
	// Neutral: the caller's own deadline or cancellation fired, which
	// proves nothing (a dead backend often shows up as timeouts). It
	// neither closes the breaker nor counts, but frees a probe slot.
	Neutral
)

// Transition is one call's effect on a breaker; From == To when the
// state did not move. Callers keep their own metrics and logs.
type Transition struct {
	From, To State
	Fails    int // consecutive failures after the call
}

// Changed reports whether the call moved the breaker.
func (t Transition) Changed() bool { return t.From != t.To }

// Breaker is a closed → open → half-open circuit breaker. Threshold
// consecutive failures open it; after the cooldown one probe at a time
// is admitted, whose success closes it and whose failure reopens it.
// Safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    State
	fails    int
	openedAt time.Time
	probing  bool
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures and probes after cooldown. now reads the clock
// (nil = time.Now).
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a call may go to the backend now: always when
// closed, and as the one probe when half-open, which an open breaker
// turns into once its cooldown has elapsed. Every admitted call must
// report its outcome with Record.
func (b *Breaker) Allow() (bool, Transition) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := Transition{From: b.state, To: b.state, Fails: b.fails}
	if b.state == Open && b.now().Sub(b.openedAt) >= b.cooldown {
		b.state, t.To = HalfOpen, HalfOpen
	}
	if b.state == Open || (b.state == HalfOpen && b.probing) {
		return false, t
	}
	b.probing = b.state == HalfOpen
	return true, t
}

// Record reports an admitted call's outcome.
func (b *Breaker) Record(o Outcome) Transition {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := Transition{From: b.state}
	switch o {
	case Success:
		b.state, b.fails = Closed, 0
	case Failure:
		b.fails++
		if b.state == HalfOpen || (b.state == Closed && b.fails >= b.threshold) {
			b.state, b.openedAt = Open, b.now()
		}
	}
	b.probing = false
	t.To, t.Fails = b.state, b.fails
	return t
}

// State reports the breaker's current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Backoff is the delay before retry number attempt (0 = the first
// retry): base × 2^attempt capped at limit, spread ±25 % by u (uniform
// in [0, 1)) so that callers failed together do not come back in
// lockstep, and capped at limit again. It is computed in floating point,
// so no attempt count overflows.
func Backoff(base, limit time.Duration, attempt int, u float64) time.Duration {
	d := math.Min(math.Ldexp(float64(base), attempt), float64(limit))
	return time.Duration(math.Min(d*(0.75+0.5*u), float64(limit)))
}

// Sleep waits d, or returns ctx's error as soon as ctx fires. A nil ctx
// sleeps unconditionally.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
