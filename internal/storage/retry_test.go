package storage

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"blendhouse/internal/obs"
	"blendhouse/internal/retry"
)

// failNStore fails the first n calls of every operation with a
// transient error, then succeeds.
type failNStore struct {
	BlobStore
	n     int
	calls int
}

func (s *failNStore) op() error {
	s.calls++
	if s.calls <= s.n {
		return &TransientError{fmt.Errorf("boom %d", s.calls)}
	}
	return nil
}

func (s *failNStore) Put(key string, data []byte) error {
	if err := s.op(); err != nil {
		return err
	}
	return s.BlobStore.Put(key, data)
}

func (s *failNStore) Get(key string) ([]byte, error) {
	if err := s.op(); err != nil {
		return nil, err
	}
	return s.BlobStore.Get(key)
}

func fastRetryConfig() RetryConfig {
	return RetryConfig{
		MaxAttempts: 4,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  200 * time.Microsecond,
		Seed:        1,
	}
}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"not_found", &ErrNotFound{"k"}, false},
		{"invalid_range", fmt.Errorf("wrap: %w", ErrInvalidRange), false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"wrapped_deadline", fmt.Errorf("op: %w", context.DeadlineExceeded), false},
		{"io_error", errors.New("connection reset"), true},
		{"transient_tagged", &TransientError{errors.New("throttled")}, true},
		{"breaker_open", ErrBreakerOpen, true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	inner := &failNStore{BlobStore: NewMemStore(), n: 3}
	rs := NewRetryStore(inner, fastRetryConfig())
	if err := rs.Put("a", []byte("v")); err != nil {
		t.Fatalf("Put with 3 transient failures and 4 attempts: %v", err)
	}
	got, err := rs.Get("a")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	st := rs.Stats()
	if st.Retries != 3 {
		t.Errorf("Retries = %d, want 3", st.Retries)
	}
	if st.Exhausted != 0 {
		t.Errorf("Exhausted = %d, want 0", st.Exhausted)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	inner := &failNStore{BlobStore: NewMemStore(), n: 100}
	rs := NewRetryStore(inner, fastRetryConfig())
	err := rs.Put("a", []byte("v"))
	if err == nil {
		t.Fatal("Put should fail when every attempt fails")
	}
	if inner.calls != 4 {
		t.Errorf("backend saw %d calls, want MaxAttempts=4", inner.calls)
	}
	if rs.Stats().Exhausted != 1 {
		t.Errorf("Exhausted = %d, want 1", rs.Stats().Exhausted)
	}
	var te *TransientError
	if !errors.As(err, &te) {
		t.Errorf("exhausted error should wrap the last transient error, got %v", err)
	}
}

func TestRetryNeverRetriesPermanent(t *testing.T) {
	mem := NewMemStore()
	fault := NewFaultStore(mem, FaultConfig{
		Seed:  1,
		Rules: []FaultRule{{Op: FaultOpPut, Permanent: true, FailCount: 1}},
	})
	rs := NewRetryStore(fault, fastRetryConfig())

	// Missing key: exactly one backend call, error preserved.
	if _, err := rs.Get("missing"); !IsNotFound(err) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if ops := fault.Stats().Ops; ops != 1 {
		t.Errorf("Get(missing) hit the backend %d times, want 1", ops)
	}

	// Permanent injected error: no retry.
	if err := rs.Put("a", []byte("v")); err == nil {
		t.Fatal("Put should surface the permanent fault")
	}
	if rs.Stats().Retries != 0 {
		t.Errorf("Retries = %d, want 0 for permanent errors", rs.Stats().Retries)
	}

	// Invalid range: rejected before touching the backend.
	before := fault.Stats().Ops
	if _, err := rs.GetRange("a", -1, 10); !errors.Is(err, ErrInvalidRange) {
		t.Fatalf("GetRange(-1) = %v, want ErrInvalidRange", err)
	}
	if fault.Stats().Ops != before {
		t.Error("invalid range should not reach the backend")
	}
}

// wrappedNotFoundStore answers every Get with a not-found wrapped in
// context, as a layer above the store reports it, and counts the calls.
type wrappedNotFoundStore struct {
	BlobStore
	calls int
}

func (s *wrappedNotFoundStore) Get(key string) ([]byte, error) {
	s.calls++
	return nil, fmt.Errorf("shard 3: %w", &ErrNotFound{key})
}

// TestWrappedNotFoundIsNotRetried: a not-found wrapped with %w is still
// not-found, so the retry layer reads it once and passes it on.
func TestWrappedNotFoundIsNotRetried(t *testing.T) {
	inner := &wrappedNotFoundStore{BlobStore: NewMemStore()}
	rs := NewRetryStore(inner, fastRetryConfig())
	_, err := rs.Get("k")
	if !IsNotFound(err) || IsTransient(err) {
		t.Fatalf("Get = %v: IsNotFound %v, IsTransient %v; want true, false", err, IsNotFound(err), IsTransient(err))
	}
	if inner.calls != 1 {
		t.Errorf("backend saw %d reads of a missing key, want 1", inner.calls)
	}
	if rs.Stats().Retries != 0 {
		t.Errorf("Retries = %d, want 0", rs.Stats().Retries)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	inner := &failNStore{BlobStore: NewMemStore(), n: 100}
	rs := NewRetryStore(inner, RetryConfig{
		MaxAttempts: 10,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  time.Second,
		Seed:        1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rs.GetCtx(ctx, "a")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GetCtx = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("GetCtx took %v; deadline should cut backoff sleeps short", el)
	}
	if inner.calls >= 10 {
		t.Errorf("backend saw %d calls; ctx should have stopped the retry loop early", inner.calls)
	}
}

func TestRetryTallyFlowsThroughContext(t *testing.T) {
	inner := &failNStore{BlobStore: NewMemStore(), n: 2}
	rs := NewRetryStore(inner, fastRetryConfig())
	if err := rs.Put("a", []byte("v")); err != nil {
		t.Fatal(err)
	}
	inner.calls = 0
	inner.n = 2

	tr := obs.NewTrace("q")
	if _, err := rs.GetCtx(obs.WithTrace(context.Background(), tr), "a"); err != nil {
		t.Fatal(err)
	}
	if got := tr.Retries(); got != 2 {
		t.Errorf("trace = %d retries, want 2", got)
	}
	// Untraced and nil contexts still retry, and charge no trace.
	before := rs.Stats().Retries
	for _, ctx := range []context.Context{context.Background(), nil} {
		inner.calls, inner.n = 0, 1
		if _, err := rs.GetCtx(ctx, "a"); err != nil {
			t.Fatal(err)
		}
	}
	if got := rs.Stats().Retries - before; got != 2 {
		t.Errorf("store retried %d times for the untraced reads, want 2", got)
	}
	if got := tr.Retries(); got != 2 {
		t.Errorf("trace = %d retries after untraced reads, want 2", got)
	}
}

func TestBreakerOpensShedsAndRecovers(t *testing.T) {
	inner := &failNStore{BlobStore: NewMemStore(), n: 3}
	rs := NewRetryStore(inner, RetryConfig{
		MaxAttempts: 1, // isolate the breaker from the retry loop
		BaseBackoff: 10 * time.Microsecond,
		Seed:        1,
		Breaker:     BreakerConfig{FailureThreshold: 3, Cooldown: 30 * time.Millisecond},
	})
	if rs.BreakerState() != retry.Closed {
		t.Fatalf("initial state = %v", rs.BreakerState())
	}
	// Three consecutive failures trip it.
	for i := 0; i < 3; i++ {
		if err := rs.Put("a", []byte("v")); err == nil {
			t.Fatal("expected failure")
		}
	}
	if rs.BreakerState() != retry.Open {
		t.Fatalf("state after threshold failures = %v, want open", rs.BreakerState())
	}
	// While open: shed fast, never touching the backend.
	calls := inner.calls
	err := rs.Put("a", []byte("v"))
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker Put = %v, want ErrBreakerOpen", err)
	}
	if inner.calls != calls {
		t.Error("open breaker must not touch the backend")
	}
	if rs.Stats().BreakerSheds == 0 {
		t.Error("shed counter should have advanced")
	}
	// After cooldown the probe goes through; the backend has recovered
	// (failNStore exhausted its budget), so the circuit closes.
	time.Sleep(50 * time.Millisecond)
	if err := rs.Put("a", []byte("v")); err != nil {
		t.Fatalf("post-cooldown probe = %v, want success", err)
	}
	if rs.BreakerState() != retry.Closed {
		t.Errorf("state after successful probe = %v, want closed", rs.BreakerState())
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	inner := &failNStore{BlobStore: NewMemStore(), n: 1000}
	rs := NewRetryStore(inner, RetryConfig{
		MaxAttempts: 1,
		BaseBackoff: 10 * time.Microsecond,
		Seed:        1,
		Breaker:     BreakerConfig{FailureThreshold: 2, Cooldown: 20 * time.Millisecond},
	})
	for i := 0; i < 2; i++ {
		_ = rs.Put("a", []byte("v"))
	}
	if rs.BreakerState() != retry.Open {
		t.Fatalf("state = %v, want open", rs.BreakerState())
	}
	time.Sleep(40 * time.Millisecond)
	// Probe fails → straight back to open, not closed.
	if err := rs.Put("a", []byte("v")); err == nil {
		t.Fatal("probe should fail")
	}
	if rs.BreakerState() != retry.Open {
		t.Errorf("state after failed probe = %v, want open again", rs.BreakerState())
	}
}

func TestBreakerCountsNotFoundAsSuccess(t *testing.T) {
	rs := NewRetryStore(NewMemStore(), RetryConfig{
		MaxAttempts: 1,
		Seed:        1,
		Breaker:     BreakerConfig{FailureThreshold: 2},
	})
	// A flood of not-found reads proves the backend is answering; the
	// breaker must stay closed.
	for i := 0; i < 10; i++ {
		if _, err := rs.Get("missing"); !IsNotFound(err) {
			t.Fatalf("Get = %v", err)
		}
	}
	if rs.BreakerState() != retry.Closed {
		t.Errorf("state = %v, want closed after permanent errors", rs.BreakerState())
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	rs := NewRetryStore(NewMemStore(), RetryConfig{
		MaxAttempts: 8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
		Seed:        42,
	})
	prevMax := time.Duration(0)
	for attempt := 0; attempt < 8; attempt++ {
		ideal := float64(time.Millisecond)
		for i := 0; i < attempt; i++ {
			ideal *= 2
		}
		if ideal > float64(8*time.Millisecond) {
			ideal = float64(8 * time.Millisecond)
		}
		for trial := 0; trial < 20; trial++ {
			d := rs.backoff(attempt)
			if d > 8*time.Millisecond {
				t.Fatalf("attempt %d backoff %v exceeds MaxBackoff", attempt, d)
			}
			lo := time.Duration(ideal * 0.74)
			if d < lo {
				t.Fatalf("attempt %d backoff %v below jitter floor %v", attempt, d, lo)
			}
			if d > prevMax {
				prevMax = d
			}
		}
	}
}

// errSeqStore scripts Put outcomes: call i returns errs[i] (nil =
// delegate to the backing store); calls past the script succeed.
type errSeqStore struct {
	BlobStore
	errs  []error
	calls int
}

func (s *errSeqStore) Put(key string, data []byte) error {
	var err error
	if s.calls < len(s.errs) {
		err = s.errs[s.calls]
	}
	s.calls++
	if err != nil {
		return err
	}
	return s.BlobStore.Put(key, data)
}

// TestBreakerTimeoutsAreNeutral: a backend failing with deadline
// timeouts must not keep the breaker closed. Regression: context
// errors used to count as breaker successes, resetting the
// consecutive-failure count — so a dead backend whose failures surface
// as timeouts interleaved with transient errors could never trip the
// breaker, exactly the stacking-timeouts scenario it exists to shed.
func TestBreakerTimeoutsAreNeutral(t *testing.T) {
	inner := &errSeqStore{BlobStore: NewMemStore(), errs: []error{
		&TransientError{errors.New("reset")},
		fmt.Errorf("op: %w", context.DeadlineExceeded), // neutral, must not reset fails
		&TransientError{errors.New("reset")},
	}}
	rs := NewRetryStore(inner, RetryConfig{
		MaxAttempts: 1, // isolate the breaker from the retry loop
		Seed:        1,
		Breaker:     BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
	})
	for i := 0; i < 3; i++ {
		if err := rs.Put("a", []byte("v")); err == nil {
			t.Fatalf("Put %d should fail", i)
		}
	}
	if rs.BreakerState() != retry.Open {
		t.Fatalf("state = %v, want open: the interleaved timeout reset the failure count", rs.BreakerState())
	}
}

// TestBreakerProbeTimeoutReleasesSlot: a half-open probe that dies to a
// context error proves nothing — the breaker must stay half-open AND
// free the probe slot, or every later request would be shed forever.
func TestBreakerProbeTimeoutReleasesSlot(t *testing.T) {
	inner := &errSeqStore{BlobStore: NewMemStore(), errs: []error{
		&TransientError{errors.New("reset")},
		&TransientError{errors.New("reset")},
		context.DeadlineExceeded, // the probe: neutral outcome
		nil,                      // the next probe: backend is back
	}}
	rs := NewRetryStore(inner, RetryConfig{
		MaxAttempts: 1,
		Seed:        1,
		Breaker:     BreakerConfig{FailureThreshold: 2, Cooldown: 10 * time.Millisecond},
	})
	for i := 0; i < 2; i++ {
		_ = rs.Put("a", []byte("v"))
	}
	if rs.BreakerState() != retry.Open {
		t.Fatalf("state = %v, want open", rs.BreakerState())
	}
	time.Sleep(20 * time.Millisecond)
	if err := rs.Put("a", []byte("v")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe = %v, want DeadlineExceeded", err)
	}
	if rs.BreakerState() != retry.HalfOpen {
		t.Fatalf("state after neutral probe = %v, want half-open", rs.BreakerState())
	}
	// No cooldown wait needed: the slot is free, the next call probes
	// immediately and closes the circuit.
	if err := rs.Put("a", []byte("v")); err != nil {
		t.Fatalf("second probe = %v, want success", err)
	}
	if rs.BreakerState() != retry.Closed {
		t.Errorf("state after successful probe = %v, want closed", rs.BreakerState())
	}
}
