package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// deliverAll is the trivial well-behaved runner: every member gets a
// result tagged with the group size.
func deliverAll(_ context.Context, g *Group) {
	for _, m := range g.Members() {
		m.Deliver(g.Size(), nil)
	}
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// pendingSize reads the open group's member count for a key (test-only
// introspection).
func (s *Scheduler) pendingSize(table, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.pending[table+"\x00"+key]
	if g == nil {
		return 0
	}
	return len(g.members)
}

func TestGroupFormsWithinWindow(t *testing.T) {
	s := New(Config{Window: 100 * time.Millisecond, MaxGroup: 8}, deliverAll)
	defer s.Close()

	const n = 3
	results := make([]any, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Submit(context.Background(), "items", "k", Profile{Segments: 4}, i)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("member %d: %v", i, errs[i])
		}
		if results[i] != n {
			t.Fatalf("member %d ran in group of %v, want %d", i, results[i], n)
		}
	}
}

func TestFullGroupSealsBeforeWindow(t *testing.T) {
	// A far-out window: completion within the test timeout proves the
	// group sealed on MaxGroup, not on the timer.
	s := New(Config{Window: time.Minute, MaxGroup: 2}, deliverAll)
	defer s.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := s.Submit(context.Background(), "items", "k", Profile{}, nil); err != nil || res != 2 {
				t.Errorf("res=%v err=%v, want group of 2", res, err)
			}
		}()
	}
	wg.Wait()
	if e := time.Since(start); e > 10*time.Second {
		t.Fatalf("full group waited %v, should seal immediately", e)
	}
}

func TestEmptyKeyRunsSolo(t *testing.T) {
	s := New(Config{Window: time.Minute, MaxGroup: 8}, deliverAll)
	defer s.Close()

	soloBefore := mSolo.Value()
	ungroupBefore := mUngroupable.Value()
	// A minute-long window would hang a grouped run; solo groups skip
	// the formation wait entirely, so this must return promptly.
	res, err := s.Submit(context.Background(), "items", "", Profile{}, nil)
	if err != nil || res != 1 {
		t.Fatalf("res=%v err=%v, want solo group of 1", res, err)
	}
	if d := mSolo.Value() - soloBefore; d != 1 {
		t.Fatalf("bh.batch.solo moved by %d, want 1", d)
	}
	if d := mUngroupable.Value() - ungroupBefore; d != 1 {
		t.Fatalf("bh.batch.ungroupable moved by %d, want 1", d)
	}
}

func TestDifferentKeysNeverGroup(t *testing.T) {
	s := New(Config{Window: 50 * time.Millisecond, MaxGroup: 8}, deliverAll)
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%2)
			res, err := s.Submit(context.Background(), "items", key, Profile{}, nil)
			if err != nil || res != 2 {
				t.Errorf("key %s: res=%v err=%v, want group of 2", key, res, err)
			}
		}(i)
	}
	wg.Wait()
}

// fakeGate counts slot acquisitions and can be told to fail.
type fakeGate struct {
	acquires atomic.Int64
	releases atomic.Int64
	err      error
}

func (f *fakeGate) AcquireTimed(ctx context.Context) (func(), time.Duration, error) {
	if f.err != nil {
		return nil, 0, f.err
	}
	f.acquires.Add(1)
	return func() { f.releases.Add(1) }, time.Millisecond, nil
}

func TestOneGateSlotPerGroup(t *testing.T) {
	gate := &fakeGate{}
	s := New(Config{Window: 100 * time.Millisecond, MaxGroup: 8}, deliverAll)
	s.SetGate(gate)
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := s.Submit(context.Background(), "items", "k", Profile{}, nil); err != nil || res != 4 {
				t.Errorf("res=%v err=%v, want group of 4", res, err)
			}
		}()
	}
	wg.Wait()
	if got := gate.acquires.Load(); got != 1 {
		t.Fatalf("group of 4 acquired %d admission slots, want exactly 1", got)
	}
	waitUntil(t, time.Second, func() bool { return gate.releases.Load() == 1 })
}

func TestGateErrorFansOutToEveryMember(t *testing.T) {
	shed := errors.New("shed")
	gate := &fakeGate{err: shed}
	s := New(Config{Window: 20 * time.Millisecond, MaxGroup: 8}, deliverAll)
	s.SetGate(gate)
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), "items", "k", Profile{}, nil); !errors.Is(err, shed) {
				t.Errorf("err = %v, want the gate error", err)
			}
		}()
	}
	wg.Wait()
}

func TestMemberCancelLeavesGroupIntact(t *testing.T) {
	s := New(Config{Window: 200 * time.Millisecond, MaxGroup: 8}, deliverAll)
	defer s.Close()

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	type out struct {
		res any
		err error
	}
	outs := make([]chan out, 3)
	for i := range outs {
		outs[i] = make(chan out, 1)
	}
	go func() {
		r, e := s.Submit(ctxA, "items", "k", Profile{}, "a")
		outs[0] <- out{r, e}
	}()
	go func() {
		r, e := s.Submit(context.Background(), "items", "k", Profile{}, "b")
		outs[1] <- out{r, e}
	}()
	go func() {
		r, e := s.Submit(context.Background(), "items", "k", Profile{}, "c")
		outs[2] <- out{r, e}
	}()

	waitUntil(t, 2*time.Second, func() bool { return s.pendingSize("items", "k") == 3 })
	cancelA()

	if o := <-outs[0]; !errors.Is(o.err, context.Canceled) {
		t.Fatalf("canceled member: res=%v err=%v, want context.Canceled", o.res, o.err)
	}
	// The survivors still execute; the sealed membership keeps the
	// abandoned slot (Deliver to it is a no-op), so the runner reports
	// a group of 3.
	for i := 1; i < 3; i++ {
		if o := <-outs[i]; o.err != nil || o.res != 3 {
			t.Fatalf("survivor %d: res=%v err=%v, want group of 3", i, o.res, o.err)
		}
	}
}

func TestLastMemberCancelCancelsGroup(t *testing.T) {
	var ran atomic.Int64
	s := New(Config{Window: 150 * time.Millisecond, MaxGroup: 8}, func(gctx context.Context, g *Group) {
		ran.Add(1)
		deliverAll(gctx, g)
	})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := s.Submit(ctx, "items", "k", Profile{}, nil)
			errCh <- err
		}()
	}
	waitUntil(t, 2*time.Second, func() bool { return s.pendingSize("items", "k") == 2 })
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-errCh; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
	// Both members abandoned during formation: the group context is
	// canceled and the runner must never fire.
	s.Close()
	if n := ran.Load(); n != 0 {
		t.Fatalf("runner ran %d times for a fully-abandoned group, want 0", n)
	}
}

func TestSafetyNetFailsForgottenMembers(t *testing.T) {
	s := New(Config{Window: 10 * time.Millisecond, MaxGroup: 8}, func(context.Context, *Group) {
		// Buggy runner: delivers nothing.
	})
	defer s.Close()
	if _, err := s.Submit(context.Background(), "items", "k", Profile{}, nil); !errors.Is(err, ErrNoResult) {
		t.Fatalf("err = %v, want ErrNoResult", err)
	}
}

func TestCloseDrainsInFlightGroups(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s := New(Config{Window: time.Millisecond, MaxGroup: 8}, func(gctx context.Context, g *Group) {
		once.Do(func() { close(started) })
		<-block
		deliverAll(gctx, g)
	})

	go s.Submit(context.Background(), "items", "k", Profile{}, nil)
	<-started

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a group was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close never returned after the group finished")
	}

	// Stragglers after Close still execute — solo and ungated.
	res, err := s.Submit(context.Background(), "items", "k", Profile{}, nil)
	if err != nil || res != 1 {
		t.Fatalf("post-Close submit: res=%v err=%v, want solo group of 1", res, err)
	}
}

func TestAdaptiveRoutesSoloWhenBatchingCannotPay(t *testing.T) {
	s := New(Config{Window: 2 * time.Millisecond, MaxGroup: 8, Adaptive: true}, deliverAll)
	defer s.Close()

	// No arrival gap observed yet → expected group size 1 → the cost
	// model says solo even though the query is groupable.
	soloBefore := mSolo.Value()
	res, err := s.Submit(context.Background(), "items", "k", Profile{Segments: 8, SegLatency: 5e-3}, nil)
	if err != nil || res != 1 {
		t.Fatalf("res=%v err=%v, want solo group of 1", res, err)
	}
	if d := mSolo.Value() - soloBefore; d != 1 {
		t.Fatalf("bh.batch.solo moved by %d, want 1 (cost model should have chosen solo)", d)
	}
}

func TestAdaptiveExploresWhenUnobserved(t *testing.T) {
	s := New(Config{Window: 30 * time.Millisecond, MaxGroup: 8, Adaptive: true}, deliverAll)
	defer s.Close()

	// SegLatency unobserved → explore: the scheduler must batch to
	// gather the statistics the cost model needs.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := s.Submit(context.Background(), "items", "k", Profile{Segments: 8}, nil); err != nil || res != 2 {
				t.Errorf("res=%v err=%v, want group of 2", res, err)
			}
		}()
	}
	wg.Wait()
}

// --- the inline solo path ----------------------------------------------------

// goid returns the calling goroutine's ID, from its stack header.
func goid() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1] // "goroutine N [running]:"
}

// TestSoloRunsOnTheSubmittingGoroutine: a query decided solo never
// changes goroutine inside the scheduler — no lead goroutine, no
// channel hand-off — and costs a fixed handful of allocations.
func TestSoloRunsOnTheSubmittingGoroutine(t *testing.T) {
	var ranOn string
	var during int
	probe := true
	gate := &fakeGate{}
	s := New(Config{Window: time.Minute, MaxGroup: 8}, func(gctx context.Context, g *Group) {
		if probe {
			ranOn, during = goid(), runtime.NumGoroutine()
		}
		deliverAll(gctx, g)
	})
	s.SetGate(gate)
	defer s.Close()

	before := runtime.NumGoroutine()
	res, err := s.Submit(context.Background(), "items", "", Profile{}, nil)
	if err != nil || res != 1 {
		t.Fatalf("res=%v err=%v, want solo group of 1", res, err)
	}
	if ranOn != goid() {
		t.Fatalf("runner ran on goroutine %s, submitter is %s", ranOn, goid())
	}
	if during != before || runtime.NumGoroutine() != before {
		t.Fatalf("goroutines: %d before, %d during the run, %d after — a solo submit spawned one",
			before, during, runtime.NumGoroutine())
	}

	// The run itself: one allocation for group + member, one for the
	// test gate's release closure.
	probe = false
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Submit(ctx, "items", "", Profile{}, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Fatalf("a solo submit allocates %.0f times, want <= 4", allocs)
	}
	if a, r := gate.acquires.Load(), gate.releases.Load(); a != r || a < 2 {
		t.Fatalf("gate: %d acquires, %d releases — every solo run takes and returns exactly one slot", a, r)
	}
}

// TestSoloRecordsWhatAGroupOfOneRecords: the metrics cannot tell an
// inline run from a sealed singleton group.
func TestSoloRecordsWhatAGroupOfOneRecords(t *testing.T) {
	s := New(Config{Window: time.Minute, MaxGroup: 8}, deliverAll)
	s.SetGate(&fakeGate{})
	defer s.Close()
	q0, g0, s1, solo0 := mQueries.Value(), mGroups.Value(), mSize1.Value(), mSolo.Value()
	fwCount, fwSum := mFormWait.Count(), mFormWait.Sum()
	if _, err := s.Submit(context.Background(), "items", "", Profile{}, nil); err != nil {
		t.Fatal(err)
	}
	if mQueries.Value()-q0 != 1 || mGroups.Value()-g0 != 1 || mSize1.Value()-s1 != 1 || mSolo.Value()-solo0 != 1 {
		t.Fatalf("queries +%d groups +%d group_size.1 +%d solo +%d, want +1 each",
			mQueries.Value()-q0, mGroups.Value()-g0, mSize1.Value()-s1, mSolo.Value()-solo0)
	}
	if c, sum := mFormWait.Count()-fwCount, mFormWait.Sum()-fwSum; c != 1 || sum > time.Nanosecond {
		t.Fatalf("formation_wait: count +%d sum +%v, want one observation of zero (the histogram floors at 1ns)", c, sum)
	}
	if w := s.tableStatsFor("items").gateWait.Value(); w <= 0 {
		t.Fatalf("gate wait EWMA = %v, want the fake gate's 1ms noted", w)
	}
}

// blockingGate admits nobody: AcquireTimed waits for ctx, like a full
// admission queue, and hands out no release func.
type blockingGate struct{}

func (blockingGate) AcquireTimed(ctx context.Context) (func(), time.Duration, error) {
	<-ctx.Done()
	return nil, 0, ctx.Err()
}

func TestSoloCtxCanceledAtFullGate(t *testing.T) {
	var ran atomic.Int64
	s := New(Config{MaxGroup: 8}, func(gctx context.Context, g *Group) {
		ran.Add(1)
		deliverAll(gctx, g)
	})
	s.SetGate(blockingGate{})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	canceled0 := mMemberCancel.Value()
	_, err := s.Submit(ctx, "items", "", Profile{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the ctx error", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("runner ran %d times without a slot", ran.Load())
	}
	if d := mMemberCancel.Value() - canceled0; d != 1 {
		t.Fatalf("bh.batch.member_canceled moved by %d, want 1", d)
	}
}

func TestSoloShedPassesThroughUnchanged(t *testing.T) {
	shed := fmt.Errorf("server: overloaded (429): %w", errors.New("queue full"))
	s := New(Config{MaxGroup: 8}, deliverAll)
	s.SetGate(&fakeGate{err: shed})
	defer s.Close()
	if _, err := s.Submit(context.Background(), "items", "", Profile{}, nil); err != shed {
		t.Fatalf("err = %v, want the gate's own error value", err)
	}
}

func TestSoloReleasesOnceAlsoOnRunnerError(t *testing.T) {
	boom := errors.New("boom")
	for name, run := range map[string]RunFunc{
		"result":  deliverAll,
		"error":   func(_ context.Context, g *Group) { g.Members()[0].Deliver(nil, boom) },
		"nothing": func(context.Context, *Group) {},
		"twice": func(_ context.Context, g *Group) {
			g.Members()[0].Deliver("first", nil)
			g.Members()[0].Deliver(nil, boom)
		},
	} {
		gate := &fakeGate{}
		s := New(Config{MaxGroup: 8}, run)
		s.SetGate(gate)
		res, err := s.Submit(context.Background(), "items", "", Profile{}, nil)
		switch name {
		case "result":
			if err != nil || res != 1 {
				t.Errorf("%s: res=%v err=%v", name, res, err)
			}
		case "error":
			if !errors.Is(err, boom) {
				t.Errorf("%s: err=%v, want the runner's error", name, err)
			}
		case "nothing":
			if !errors.Is(err, ErrNoResult) {
				t.Errorf("%s: err=%v, want ErrNoResult", name, err)
			}
		case "twice":
			if err != nil || res != "first" {
				t.Errorf("%s: res=%v err=%v, want the first delivery", name, res, err)
			}
		}
		if a, r := gate.acquires.Load(), gate.releases.Load(); a != 1 || r != 1 {
			t.Errorf("%s: %d acquires, %d releases, want exactly 1 and 1", name, a, r)
		}
		s.Close()
	}
}

func TestCloseWaitsForInlineSoloRun(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	s := New(Config{MaxGroup: 8}, func(gctx context.Context, g *Group) {
		close(started)
		<-block
		deliverAll(gctx, g)
	})
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), "items", "", Profile{}, nil)
		done <- err
	}()
	<-started

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an inline solo run was still executing")
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close never returned after the inline run finished")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSoloGroupedAndClose mixes inline solo runs, forming
// groups and a Close arriving mid-stream, for the race detector: the
// scheduler's shared state (gate, closed flag, wait group, stats) is
// reached from every submitter at once, and no query may be lost.
func TestConcurrentSoloGroupedAndClose(t *testing.T) {
	gate := &fakeGate{}
	s := New(Config{Window: time.Millisecond, MaxGroup: 4}, deliverAll)
	s.SetGate(gate)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := ""
				if (w+i)%3 == 0 {
					key = "k"
				}
				if _, err := s.Submit(context.Background(), "items", key, Profile{}, nil); err != nil {
					t.Errorf("worker %d submit %d: %v", w, i, err)
					return
				}
				if w == 0 && i == 25 {
					s.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	if a, r := gate.acquires.Load(), gate.releases.Load(); a != r {
		t.Fatalf("%d slots acquired, %d released", a, r)
	}
}
