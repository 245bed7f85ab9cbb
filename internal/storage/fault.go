// FaultStore is the deterministic fault injector behind chaos testing:
// a BlobStore wrapper that fails, delays, or hooks operations according
// to a seeded schedule. It generalizes the test-local flaky store the
// WAL durability tests grew in PR 4 into a first-class tool: per-op
// error rates for soak tests, per-key rules and fail-after-N sequences
// for deterministic regressions, latency spikes for tail-latency work,
// and a synchronous Hook for precise race interleavings.
package storage

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"blendhouse/internal/obs"
	"blendhouse/internal/retry"
)

var mFaultsInjected = obs.Default().Counter("bh.storage.faults_injected")

// FaultOp names a BlobStore operation for fault matching.
type FaultOp string

// The injectable operations. FaultOpAny matches all of them.
const (
	FaultOpAny      FaultOp = ""
	FaultOpPut      FaultOp = "put"
	FaultOpGet      FaultOp = "get"
	FaultOpGetRange FaultOp = "get_range"
	FaultOpSize     FaultOp = "size"
	FaultOpDelete   FaultOp = "delete"
	FaultOpList     FaultOp = "list"
)

// FaultRule injects targeted faults: it matches operations by kind and
// key substring, and fires by probability and/or position in the
// matching sequence.
type FaultRule struct {
	// Op restricts the rule to one operation kind (FaultOpAny = all).
	Op FaultOp
	// KeySubstr restricts the rule to keys containing this substring
	// (empty = all keys).
	KeySubstr string
	// ErrRate is the probability a matching op fails (0 means 1.0:
	// rules exist to fire, so an unset rate fails every match).
	ErrRate float64
	// FailAfter skips the first N matching ops before the rule arms —
	// "the 3rd manifest write fails" style schedules.
	FailAfter int
	// FailCount caps how many times the rule fires (0 = unlimited).
	FailCount int
	// Permanent makes injected errors non-retryable (not wrapped in
	// TransientError), for exercising give-up paths.
	Permanent bool
	// Latency is added to matching ops (on top of FaultConfig.Latency).
	Latency time.Duration

	matched, fired int // guarded by FaultStore.mu
}

// FaultConfig configures a FaultStore.
type FaultConfig struct {
	// Seed makes the whole fault schedule deterministic (0 seeds from
	// the clock).
	Seed int64
	// ErrRate is the baseline probability any operation fails with a
	// transient error.
	ErrRate float64
	// Latency is added to every operation.
	Latency time.Duration
	// SpikeRate is the probability an operation additionally sleeps
	// SpikeLatency — modeled tail-latency spikes.
	SpikeRate float64
	// SpikeLatency is the spike duration.
	SpikeLatency time.Duration
	// Rules are targeted injections checked before the baseline rate.
	Rules []FaultRule
}

// FaultStats counts a FaultStore's activity.
type FaultStats struct {
	Ops, Injected int64
}

// FaultStore wraps a backing store with deterministic fault injection.
// It implements CtxReader so injected latency respects read deadlines.
type FaultStore struct {
	backing BlobStore

	mu       sync.Mutex
	rng      *rand.Rand
	rules    []*FaultRule
	cfg      FaultConfig
	hook     func(op FaultOp, key string) error
	ops      int64
	injected int64
}

// NewFaultStore wraps backing with the fault schedule in cfg.
func NewFaultStore(backing BlobStore, cfg FaultConfig) *FaultStore {
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rules := make([]*FaultRule, len(cfg.Rules))
	for i := range cfg.Rules {
		r := cfg.Rules[i]
		rules[i] = &r
	}
	return &FaultStore{
		backing: backing,
		rng:     rand.New(rand.NewSource(seed)),
		rules:   rules,
		cfg:     cfg,
	}
}

// SetHook installs a synchronous callback run before every operation
// (nil uninstalls). A non-nil returned error is injected as the op's
// result. Hooks are how tests pin down exact interleavings — e.g. "run
// a DELETE the moment compaction writes its merged segment".
func (s *FaultStore) SetHook(h func(op FaultOp, key string) error) {
	s.mu.Lock()
	s.hook = h
	s.mu.Unlock()
}

// Stats snapshots operation and injection counts.
func (s *FaultStore) Stats() FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return FaultStats{Ops: s.ops, Injected: s.injected}
}

func (r *FaultRule) matches(op FaultOp, key string) bool {
	if r.Op != FaultOpAny && r.Op != op {
		return false
	}
	return r.KeySubstr == "" || strings.Contains(key, r.KeySubstr)
}

// decide consults the schedule for one operation. It returns the error
// to inject (nil = proceed) and any extra latency to model. The rng and
// rule counters sit behind s.mu; sleeping happens in inject, outside it.
func (s *FaultStore) decide(op FaultOp, key string) (error, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	delay := s.cfg.Latency
	if s.cfg.SpikeRate > 0 && s.rng.Float64() < s.cfg.SpikeRate {
		delay += s.cfg.SpikeLatency
	}
	for _, r := range s.rules {
		if !r.matches(op, key) {
			continue
		}
		delay += r.Latency
		r.matched++
		if r.matched <= r.FailAfter {
			continue
		}
		if r.FailCount > 0 && r.fired >= r.FailCount {
			continue
		}
		if r.ErrRate > 0 && s.rng.Float64() >= r.ErrRate {
			continue
		}
		r.fired++
		s.injected++
		mFaultsInjected.Inc()
		err := fmt.Errorf("storage: injected fault (%s %s)", op, key)
		if r.Permanent {
			return &PermanentError{err}, delay
		}
		return &TransientError{err}, delay
	}
	if s.cfg.ErrRate > 0 && s.rng.Float64() < s.cfg.ErrRate {
		s.injected++
		mFaultsInjected.Inc()
		return &TransientError{fmt.Errorf("storage: injected fault (%s %s)", op, key)}, delay
	}
	return nil, delay
}

// inject runs the schedule (hook, latency, then any injected error) for
// one operation. ctx bounds the modeled latency.
func (s *FaultStore) inject(ctx context.Context, op FaultOp, key string) error {
	s.mu.Lock()
	hook := s.hook
	s.mu.Unlock()
	if hook != nil {
		if err := hook(op, key); err != nil {
			return err
		}
	}
	err, delay := s.decide(op, key)
	if serr := retry.Sleep(ctx, delay); serr != nil {
		return serr
	}
	return err
}

// Put implements BlobStore.
func (s *FaultStore) Put(key string, data []byte) error {
	if err := s.inject(nil, FaultOpPut, key); err != nil {
		return err
	}
	return s.backing.Put(key, data)
}

// Get implements BlobStore.
func (s *FaultStore) Get(key string) ([]byte, error) {
	return s.GetCtx(nil, key)
}

// GetCtx implements CtxReader.
func (s *FaultStore) GetCtx(ctx context.Context, key string) ([]byte, error) {
	if err := s.inject(ctx, FaultOpGet, key); err != nil {
		return nil, err
	}
	return GetCtx(ctx, s.backing, key)
}

// GetRange implements BlobStore.
func (s *FaultStore) GetRange(key string, off, length int64) ([]byte, error) {
	return s.GetRangeCtx(nil, key, off, length)
}

// GetRangeCtx implements CtxReader.
func (s *FaultStore) GetRangeCtx(ctx context.Context, key string, off, length int64) ([]byte, error) {
	if err := checkRange(off, length); err != nil {
		return nil, err
	}
	if err := s.inject(ctx, FaultOpGetRange, key); err != nil {
		return nil, err
	}
	return GetRangeCtx(ctx, s.backing, key, off, length)
}

// Size implements BlobStore.
func (s *FaultStore) Size(key string) (int64, error) {
	if err := s.inject(nil, FaultOpSize, key); err != nil {
		return 0, err
	}
	return s.backing.Size(key)
}

// Delete implements BlobStore.
func (s *FaultStore) Delete(key string) error {
	if err := s.inject(nil, FaultOpDelete, key); err != nil {
		return err
	}
	return s.backing.Delete(key)
}

// List implements BlobStore.
func (s *FaultStore) List(prefix string) ([]string, error) {
	if err := s.inject(nil, FaultOpList, prefix); err != nil {
		return nil, err
	}
	return s.backing.List(prefix)
}
