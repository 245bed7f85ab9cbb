package storage

import (
	"context"
	"testing"
	"time"

	"blendhouse/internal/obs"
	"blendhouse/internal/retry"
)

// TestBreakerTransitionCounter checks every breaker state edge bumps
// bh.storage.breaker_transitions: closed→open (threshold), open→half-open
// (cooldown probe), half-open→closed (probe success) — and, separately,
// half-open→open on a failed probe.
func TestBreakerTransitionCounter(t *testing.T) {
	before := mBreakerTransitions.Value()
	inner := &failNStore{BlobStore: NewMemStore(), n: 3}
	rs := NewRetryStore(inner, RetryConfig{
		MaxAttempts: 1,
		BaseBackoff: 10 * time.Microsecond,
		Seed:        1,
		Breaker:     BreakerConfig{FailureThreshold: 3, Cooldown: 20 * time.Millisecond},
	})
	for i := 0; i < 3; i++ {
		_ = rs.Put("a", []byte("v"))
	}
	if rs.BreakerState() != retry.Open {
		t.Fatalf("state = %v, want open", rs.BreakerState())
	}
	if got := mBreakerTransitions.Value() - before; got != 1 {
		t.Fatalf("transitions after trip = %d, want 1 (closed→open)", got)
	}
	time.Sleep(40 * time.Millisecond)
	// Cooldown elapsed: the probe transitions open→half-open, succeeds
	// (failNStore budget exhausted), and closes the circuit.
	if err := rs.Put("a", []byte("v")); err != nil {
		t.Fatalf("probe = %v, want success", err)
	}
	if rs.BreakerState() != retry.Closed {
		t.Fatalf("state = %v, want closed", rs.BreakerState())
	}
	if got := mBreakerTransitions.Value() - before; got != 3 {
		t.Fatalf("transitions after recovery = %d, want 3 (…→half-open→closed)", got)
	}
}

func TestBreakerTransitionCounterFailedProbe(t *testing.T) {
	before := mBreakerTransitions.Value()
	inner := &failNStore{BlobStore: NewMemStore(), n: 1000}
	rs := NewRetryStore(inner, RetryConfig{
		MaxAttempts: 1,
		BaseBackoff: 10 * time.Microsecond,
		Seed:        1,
		Breaker:     BreakerConfig{FailureThreshold: 2, Cooldown: 15 * time.Millisecond},
	})
	for i := 0; i < 2; i++ {
		_ = rs.Put("a", []byte("v"))
	}
	time.Sleep(30 * time.Millisecond)
	if err := rs.Put("a", []byte("v")); err == nil {
		t.Fatal("probe should fail")
	}
	if rs.BreakerState() != retry.Open {
		t.Fatalf("state = %v, want open again", rs.BreakerState())
	}
	// closed→open, open→half-open, half-open→open.
	if got := mBreakerTransitions.Value() - before; got != 3 {
		t.Fatalf("transitions = %d, want 3", got)
	}
}

// TestIOTallyFedBySegmentReads checks reads through SegmentReader feed
// the read counters of the trace on ctx exactly once per blob fetch
// (the retry layer below must not double-count).
func TestIOTallyFedBySegmentReads(t *testing.T) {
	store := NewRetryStore(NewMemStore(), fastRetryConfig())
	batch := testBatch(8)
	if _, err := WriteSegment(store, SegmentMeta{Name: "seg1", Table: "t", Bucket: -1}, batch, 4); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSegment(store, testSchema(), "t", "seg1")
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTrace("q")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := r.ReadColumnCtx(ctx, "id"); err != nil {
		t.Fatal(err)
	}
	reads, bytes, dur := tr.Reads()
	if reads != 1 {
		t.Fatalf("reads = %d, want 1 (one column blob)", reads)
	}
	if bytes <= 0 || dur <= 0 {
		t.Fatalf("bytes/dur = %d/%v, want positive", bytes, dur)
	}

	// Without a trace on the ctx the same read is uncounted (and cheap).
	if _, err := r.ReadColumnCtx(context.Background(), "id"); err != nil {
		t.Fatal(err)
	}
	if r2, _, _ := tr.Reads(); r2 != reads {
		t.Fatalf("trace counted %d reads without being attached", r2)
	}
}
