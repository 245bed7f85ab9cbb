package storage

import (
	"context"
	"testing"
	"time"

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

// TestIOTally checks the ctx-carried IO tally: nil-safe, additive, and
// only counted when a tally actually rides the context.
func TestIOTally(t *testing.T) {
	var nilTally *IOTally
	nilTally.Add(10, time.Millisecond) // must not panic
	r, b, d := nilTally.Values()
	if r != 0 || b != 0 || d != 0 {
		t.Fatalf("nil tally values = %d/%d/%v", r, b, d)
	}

	tally := &IOTally{}
	tally.Add(100, 2*time.Millisecond)
	tally.Add(50, time.Millisecond)
	r, b, d = tally.Values()
	if r != 2 || b != 150 || d != 3*time.Millisecond {
		t.Fatalf("tally = %d reads / %d bytes / %v, want 2/150/3ms", r, b, d)
	}

	ctx := WithIOTally(context.Background(), tally)
	if got := IOTallyFrom(ctx); got != tally {
		t.Fatal("IOTallyFrom did not return the attached tally")
	}
	if got := IOTallyFrom(context.Background()); got != nil {
		t.Fatal("IOTallyFrom on a bare ctx should be nil")
	}
}

// TestIOTallyFedBySegmentReads checks reads through SegmentReader feed
// an attached tally exactly once per blob fetch (the retry layer below
// must not double-count).
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

	tally := &IOTally{}
	ctx := WithIOTally(context.Background(), tally)
	if _, err := r.ReadColumnCtx(ctx, "id"); err != nil {
		t.Fatal(err)
	}
	reads, bytes, dur := tally.Values()
	if reads != 1 {
		t.Fatalf("reads = %d, want 1 (one column blob)", reads)
	}
	if bytes <= 0 || dur <= 0 {
		t.Fatalf("bytes/dur = %d/%v, want positive", bytes, dur)
	}

	// Without a tally on the ctx the same read is untallied (and cheap).
	if _, err := r.ReadColumnCtx(context.Background(), "id"); err != nil {
		t.Fatal(err)
	}
	if r2, _, _ := tally.Values(); r2 != reads {
		t.Fatalf("tally advanced to %d without being attached", r2)
	}
}
