package server

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"blendhouse/internal/obs"
	"blendhouse/pkg/api"
)

// Admission-control metrics. The gauges are levels (current in-flight
// statements, current queued waiters); the counters are totals since
// start. Shed splits by cause: queue_full (bounded wait queue at
// capacity) vs queue_timeout (waited longer than QueueTimeout).
var (
	mAdmInFlight     = obs.Default().Gauge("bh.server.admission.in_flight")
	mAdmQueued       = obs.Default().Gauge("bh.server.admission.queued")
	mAdmAdmitted     = obs.Default().Counter("bh.server.admission.admitted")
	mAdmShedFull     = obs.Default().Counter("bh.server.admission.shed.queue_full")
	mAdmShedTimeout  = obs.Default().Counter("bh.server.admission.shed.queue_timeout")
	mAdmQueueWait    = obs.Default().Histogram("bh.server.admission.queue_wait")
	mAdmCtxAbandoned = obs.Default().Counter("bh.server.admission.ctx_abandoned")
)

// AdmissionConfig sizes the controller.
type AdmissionConfig struct {
	// MaxConcurrent bounds statements executing in the engine at once
	// (<=0 = 2×GOMAXPROCS). This sits ABOVE the per-query worker pool:
	// the pool bounds intra-query fan-out, admission bounds inter-query
	// concurrency, so a burst degrades into orderly queueing instead of
	// a thundering herd of half-scheduled queries.
	MaxConcurrent int
	// MaxQueue bounds statements waiting for a slot (0 = 4×MaxConcurrent;
	// negative = no queue, shed immediately when all slots are busy).
	MaxQueue int
	// QueueTimeout sheds a waiter that has queued this long (0 = wait
	// until the request's own context expires).
	QueueTimeout time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	return c
}

// Admission is a semaphore with a bounded wait queue in front of the
// engine. Acquire either admits (returning a release func), sheds
// (api.ErrShed) when the queue is full or the wait times out, or fails
// with the caller's context error.
type Admission struct {
	cfg   AdmissionConfig
	slots chan struct{}

	mu     sync.Mutex
	queued int
}

// NewAdmission builds a controller (zero-value config gets defaults).
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg = cfg.withDefaults()
	return &Admission{cfg: cfg, slots: make(chan struct{}, cfg.MaxConcurrent)}
}

// Capacity returns the concurrent-statement bound.
func (a *Admission) Capacity() int { return a.cfg.MaxConcurrent }

// QueueBound returns the wait-queue bound.
func (a *Admission) QueueBound() int { return a.cfg.MaxQueue }

// Acquire admits one statement, blocking in the bounded queue when all
// slots are busy. On success the returned release func MUST be called
// exactly once when the statement finishes. Failure modes:
//
//	api.ErrShed       — queue full on arrival, or queued past QueueTimeout
//	ctx.Err()     — the caller's context fired while queued (the
//	                statement never started; surfaces as timeout/cancel)
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	release, _, err = a.AcquireTimed(ctx)
	return release, err
}

// AcquireTimed is Acquire reporting how long the statement waited for
// its slot (0 on the uncontended fast path). Every admission observes
// the bh.server.admission.queue_wait histogram — fast-path zeros
// included, so the histogram's quantiles reflect what a typical
// statement actually waited, not just the queued minority.
func (a *Admission) AcquireTimed(ctx context.Context) (release func(), wait time.Duration, err error) {
	// An already-fired context must never be granted a slot: the caller
	// is gone, nothing would run the statement or call release.
	if err := ctx.Err(); err != nil {
		mAdmCtxAbandoned.Inc()
		return nil, 0, err
	}
	// Fast path: free slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		if err := ctx.Err(); err != nil {
			// ctx fired in the same instant the slot was taken: give the
			// slot straight back (unblocking any queued sender) instead of
			// leaking it behind a release() nobody will call.
			<-a.slots
			mAdmCtxAbandoned.Inc()
			return nil, 0, err
		}
		mAdmQueueWait.Observe(0)
		return a.admit(), 0, nil
	default:
	}

	a.mu.Lock()
	if a.queued >= a.cfg.MaxQueue {
		a.mu.Unlock()
		mAdmShedFull.Inc()
		return nil, 0, fmt.Errorf("%w: wait queue full (%d queued, %d slots)", api.ErrShed, a.cfg.MaxQueue, a.cfg.MaxConcurrent)
	}
	a.queued++
	mAdmQueued.Inc()
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.queued--
		a.mu.Unlock()
		mAdmQueued.Dec()
	}()

	var timeout <-chan time.Time
	if a.cfg.QueueTimeout > 0 {
		t := time.NewTimer(a.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	start := obs.Now()
	select {
	case a.slots <- struct{}{}:
		wait = time.Since(start)
		if err := ctx.Err(); err != nil {
			// The select granted the slot in the same instant the waiter's
			// context fired. The caller would discard the grant, so the
			// abandoned-while-granted window must not leak the slot.
			<-a.slots
			mAdmCtxAbandoned.Inc()
			return nil, wait, err
		}
		mAdmQueueWait.Observe(wait)
		return a.admit(), wait, nil
	case <-timeout:
		mAdmShedTimeout.Inc()
		return nil, time.Since(start), fmt.Errorf("%w: queued longer than %v", api.ErrShed, a.cfg.QueueTimeout)
	case <-ctx.Done():
		mAdmCtxAbandoned.Inc()
		return nil, time.Since(start), ctx.Err()
	}
}

// admit records the slot grant and returns its paired release.
func (a *Admission) admit() func() {
	mAdmAdmitted.Inc()
	mAdmInFlight.Inc()
	var once sync.Once
	return func() {
		once.Do(func() {
			<-a.slots
			mAdmInFlight.Dec()
		})
	}
}

// InFlight reports currently admitted statements (for tests and the
// drain path).
func (a *Admission) InFlight() int { return len(a.slots) }

// Queued reports current waiters.
func (a *Admission) Queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}
