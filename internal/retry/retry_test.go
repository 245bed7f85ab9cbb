package retry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreaker drives the state machine through an injected clock: each
// step makes one call, checks the transition it returned and State()
// after it.
func TestBreaker(t *testing.T) {
	const cool = time.Second
	type step struct {
		do    string        // allow, deny, success, failure, neutral or wait
		wait  time.Duration // for wait: how far the clock moves
		edge  string        // the transition the step returns, "" for none
		state State         // State() after the step
	}
	trip := []step{
		{do: "failure", state: Closed},
		{do: "failure", state: Closed},
		{do: "failure", edge: "closed>open", state: Open},
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"opens_at_threshold", []step{
			{do: "allow", state: Closed},
			{do: "failure", state: Closed},
			{do: "allow", state: Closed},
			{do: "failure", state: Closed},
			{do: "allow", state: Closed},
			{do: "failure", edge: "closed>open", state: Open},
			{do: "deny", state: Open},
			{do: "wait", wait: cool - 1, state: Open},
			{do: "deny", state: Open},
		}},
		{"success_resets", []step{
			{do: "failure", state: Closed},
			{do: "failure", state: Closed},
			{do: "success", state: Closed},
			{do: "failure", state: Closed},
			{do: "failure", state: Closed},
			{do: "allow", state: Closed},
			{do: "failure", edge: "closed>open", state: Open},
		}},
		{"one_probe_at_a_time", append(trip, []step{
			{do: "wait", wait: cool, state: Open},
			{do: "allow", edge: "open>half_open", state: HalfOpen},
			{do: "deny", state: HalfOpen},
			{do: "deny", state: HalfOpen},
			{do: "success", edge: "half_open>closed", state: Closed},
			{do: "allow", state: Closed},
			{do: "allow", state: Closed},
			{do: "failure", state: Closed}, // the count restarted at zero
		}...)},
		{"failed_probe_reopens", append(trip, []step{
			{do: "wait", wait: cool, state: Open},
			{do: "allow", edge: "open>half_open", state: HalfOpen},
			{do: "wait", wait: cool / 2, state: HalfOpen},
			{do: "failure", edge: "half_open>open", state: Open},
			{do: "deny", state: Open},
			// The cooldown restarts at the failed probe, not at the trip.
			{do: "wait", wait: cool - 1, state: Open},
			{do: "deny", state: Open},
			{do: "wait", wait: 1, state: Open},
			{do: "allow", edge: "open>half_open", state: HalfOpen},
			{do: "success", edge: "half_open>closed", state: Closed},
		}...)},
		{"neutral_releases_probe", append(trip, []step{
			{do: "wait", wait: cool, state: Open},
			{do: "allow", edge: "open>half_open", state: HalfOpen},
			{do: "neutral", state: HalfOpen},
			// The slot is free: the next call probes without a cooldown.
			{do: "allow", state: HalfOpen},
			{do: "deny", state: HalfOpen},
			{do: "neutral", state: HalfOpen},
			{do: "allow", state: HalfOpen},
			{do: "failure", edge: "half_open>open", state: Open},
		}...)},
		{"neutral_neither_counts_nor_resets", []step{
			{do: "failure", state: Closed},
			{do: "neutral", state: Closed},
			{do: "neutral", state: Closed},
			{do: "neutral", state: Closed},
			{do: "failure", state: Closed},
			{do: "neutral", state: Closed},
			{do: "failure", edge: "closed>open", state: Open},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(0, 0)
			b := NewBreaker(3, cool, func() time.Time { return now })
			for i, s := range tc.steps {
				var tr Transition
				switch s.do {
				case "allow", "deny":
					var ok bool
					ok, tr = b.Allow()
					if ok != (s.do == "allow") {
						t.Fatalf("step %d: Allow = %v, want %s", i, ok, s.do)
					}
				case "success":
					tr = b.Record(Success)
				case "failure":
					tr = b.Record(Failure)
				case "neutral":
					tr = b.Record(Neutral)
				case "wait":
					now = now.Add(s.wait)
				}
				edge := ""
				if tr.Changed() {
					edge = fmt.Sprintf("%v>%v", tr.From, tr.To)
				}
				if edge != s.edge {
					t.Fatalf("step %d (%s): transition %q, want %q", i, s.do, edge, s.edge)
				}
				if got := b.State(); got != s.state {
					t.Fatalf("step %d (%s): State() = %v, want %v", i, s.do, got, s.state)
				}
			}
		})
	}
}

// TestBreakerOneProbeUnderContention: however many callers race for the
// half-open slot, one is admitted.
func TestBreakerOneProbeUnderContention(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(1, time.Second, func() time.Time { return now })
	b.Allow()
	b.Record(Failure)
	now = now.Add(time.Second)
	var admitted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ok, _ := b.Allow(); ok {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := admitted.Load(); n != 1 {
		t.Fatalf("%d probes admitted, want 1", n)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	base, limit := 5*time.Millisecond, 250*time.Millisecond
	ideal := []time.Duration{5, 10, 20, 40, 80, 160, 250, 250}
	for n, want := range ideal {
		want *= time.Millisecond
		if d := Backoff(base, limit, n, 0.5); d != want {
			t.Errorf("attempt %d, mid jitter: %v, want %v", n, d, want)
		}
		if d := Backoff(base, limit, n, 0); d != want*3/4 {
			t.Errorf("attempt %d, low jitter: %v, want %v", n, d, want*3/4)
		}
		if d := Backoff(base, limit, n, 0.999); d > limit || d < want {
			t.Errorf("attempt %d, high jitter: %v, want in [%v, %v]", n, d, want, limit)
		}
	}
}

// TestBackoffNoOverflow: a shift-based formula wraps past attempt ~38 at
// a 50 ms base and returns zero or negative waits; this one stays
// within the jitter band under the cap at any attempt.
func TestBackoffNoOverflow(t *testing.T) {
	base, limit := 50*time.Millisecond, 2*time.Second
	for n := 30; n <= 100; n++ {
		for _, u := range []float64{0, 0.5, 0.999999} {
			if d := Backoff(base, limit, n, u); d < 3*limit/4 || d > limit {
				t.Fatalf("attempt %d, u %v: %v, want in [%v, %v]", n, u, d, 3*limit/4, limit)
			}
		}
	}
}

func TestSleep(t *testing.T) {
	var noCtx context.Context // a nil ctx: write paths that carry none
	start := time.Now()
	if err := Sleep(noCtx, 5*time.Millisecond); err != nil || time.Since(start) < 5*time.Millisecond {
		t.Fatalf("nil ctx: err %v after %v, want a plain 5ms sleep", err, time.Since(start))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, 0); err != nil {
		t.Fatalf("zero wait on a fired ctx = %v, want nil", err)
	}
	start = time.Now()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("fired ctx = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("fired ctx returned after %v", el)
	}
}
