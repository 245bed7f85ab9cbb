package server

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"blendhouse/internal/testutil"
	"blendhouse/pkg/api"
	"blendhouse/pkg/client"
)

func TestAdmissionCapAndQueue(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2, MaxQueue: 1})
	ctx := context.Background()

	r1, err := a.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}

	// Third acquire queues; it must be admitted once a slot frees.
	got := make(chan error, 1)
	var r3 func()
	go func() {
		var err error
		r3, err = a.Acquire(ctx)
		got <- err
	}()
	waitFor(t, time.Second, func() bool { return a.Queued() == 1 })

	// Queue is now full (MaxQueue=1): the fourth acquire sheds.
	if _, err := a.Acquire(ctx); !errors.Is(err, api.ErrShed) {
		t.Fatalf("want api.ErrShed with full queue, got %v", err)
	}

	r1()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}
	r2()
	r3()
	if a.InFlight() != 0 || a.Queued() != 0 {
		t.Fatalf("levels not restored: in_flight=%d queued=%d", a.InFlight(), a.Queued())
	}
}

func TestAdmissionQueueTimeout(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond})
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	if _, err := a.Acquire(context.Background()); !errors.Is(err, api.ErrShed) {
		t.Fatalf("want api.ErrShed after queue timeout, got %v", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("queue-timeout shed took %v", e)
	}
}

func TestAdmissionContextWhileQueued(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4})
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded while queued, got %v", err)
	}
}

// TestAdmissionDeadContextNeverGranted covers the abandoned-while-
// granted window: a context that is already fired (or fires in the
// same instant the semaphore grants) must never be handed a slot —
// the caller is gone and would never call release, leaking capacity
// forever.
func TestAdmissionDeadContextNeverGranted(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})

	// Fast path: slots are free, but the context is already dead.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled fast path: want context.Canceled, got %v", err)
	}
	if a.InFlight() != 0 {
		t.Fatalf("pre-canceled fast path leaked a slot: in_flight=%d", a.InFlight())
	}

	// The full capacity must still be acquirable.
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("slot unavailable after abandoned acquire: %v", err)
	}
	release()
}

// TestAdmissionGrantCancelRaceLeaksNothing hammers the race between a
// queued waiter being granted a slot and its context firing: whichever
// side wins, every grant must be paired with a release and every
// abandoned wait must leave the slot available. Before the fix, a
// waiter whose context fired in the same select round as the grant
// could be handed the slot and drop it on the floor.
func TestAdmissionGrantCancelRaceLeaksNothing(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2, MaxQueue: 64})
	const iters = 400
	var wg sync.WaitGroup
	for i := 0; i < iters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Deadlines land around the moment earlier holders release,
			// maximizing grant/cancel collisions.
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
			defer cancel()
			release, err := a.Acquire(ctx)
			if err != nil {
				return // shed or abandoned: nothing to release
			}
			release()
		}(i)
	}
	wg.Wait()
	waitFor(t, time.Second, func() bool { return a.InFlight() == 0 && a.Queued() == 0 })

	// Every slot must still be grantable — the leak, if any, shows up
	// here as a hang/shed with an empty server.
	var rels []func()
	for i := 0; i < a.Capacity(); i++ {
		r, err := a.Acquire(context.Background())
		if err != nil {
			t.Fatalf("slot %d unavailable after race storm: %v", i, err)
		}
		rels = append(rels, r)
	}
	for _, r := range rels {
		r()
	}
	if a.InFlight() != 0 {
		t.Fatalf("in_flight = %d after full release, want 0", a.InFlight())
	}
}

func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // double release must not free a phantom slot
	if a.InFlight() != 0 {
		t.Fatalf("InFlight = %d after release, want 0", a.InFlight())
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2()
}

// TestServerShedsUnderSaturation saturates a 1-slot/1-queue server
// with slow queries and checks exactly the overflow statements shed
// with 429 SHED, the rest succeed, and a full drain leaks nothing.
func TestServerShedsUnderSaturation(t *testing.T) {
	before := runtime.NumGoroutine()
	e := testEngine(t, 2*time.Millisecond)
	s, _ := startServer(t, e, Config{
		Admission:    AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1},
		DrainTimeout: 20 * time.Second,
	})
	// No retries: a shed must surface, not be waited out.
	c, err := client.New(client.Config{BaseURL: "http://" + s.Addr(), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}

	const n = 6
	var (
		wg               sync.WaitGroup
		mu               sync.Mutex
		shed, ok, failed int
		unexpected       error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Query(context.Background(), testQuery())
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, api.ErrShed):
				var apiErr *client.APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode != http.StatusTooManyRequests {
					unexpected = err
				}
				shed++
			default:
				failed++
				unexpected = err
			}
		}()
	}
	wg.Wait()
	if unexpected != nil {
		t.Fatalf("unexpected failure: %v", unexpected)
	}
	// 1 running + 1 queued can succeed at a time; with 6 simultaneous
	// statements at least one must shed and at least two must succeed
	// (exact counts depend on scheduling as slots free up).
	if shed == 0 {
		t.Fatalf("no sheds under saturation (ok=%d shed=%d failed=%d)", ok, shed, failed)
	}
	if ok < 2 {
		t.Fatalf("only %d statements succeeded (shed=%d failed=%d)", ok, shed, failed)
	}
	if failed != 0 {
		t.Fatalf("%d statements failed outside the shed path", failed)
	}

	if err := s.Drain(); err != nil {
		t.Fatalf("drain after saturation: %v", err)
	}
	if s.Admission().InFlight() != 0 || s.Admission().Queued() != 0 {
		t.Fatalf("admission not drained: in_flight=%d queued=%d",
			s.Admission().InFlight(), s.Admission().Queued())
	}
	c.Close()
	e.Close()
	testutil.CheckNoLeaks(t, before)
}
