package hashring

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("segment-%05d", i)
	}
	return out
}

func TestEmptyRing(t *testing.T) {
	r := New()
	if got := r.Get("k"); got != "" {
		t.Fatalf("empty ring returned %q", got)
	}
	if got := r.GetN("k", 3); got != nil {
		t.Fatalf("empty ring GetN returned %v", got)
	}
}

func TestSingleNodeTakesAll(t *testing.T) {
	r := New()
	r.Add("w0")
	for _, k := range keys(50) {
		if r.Get(k) != "w0" {
			t.Fatal("single node must own every key")
		}
	}
}

func TestDeterministicAssignment(t *testing.T) {
	r1 := New()
	r2 := New()
	for _, w := range []string{"w0", "w1", "w2"} {
		r1.Add(w)
		r2.Add(w)
	}
	for _, k := range keys(200) {
		if r1.Get(k) != r2.Get(k) {
			t.Fatalf("rings with identical topology disagree on %s", k)
		}
	}
}

// A clone assigns every key as its original did when cloned, whatever
// either ring is changed to afterwards.
func TestCloneKeepsItsTopology(t *testing.T) {
	r := New()
	for _, w := range []string{"w0", "w1", "w2"} {
		r.Add(w)
	}
	before := r.Assign(keys(200))
	c := r.Clone()
	r.Add("w3")
	r.Remove("w0")
	c.Add("w4")
	c.Remove("w4")
	for k, owner := range before {
		if got := c.Get(k); got != owner {
			t.Fatalf("clone assigns %s to %s, the ring it was cloned from to %s", k, got, owner)
		}
	}
}

func TestAddIdempotent(t *testing.T) {
	r := New()
	r.Add("w0")
	r.Add("w0")
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	r.Remove("absent") // no-op
	if r.Len() != 1 {
		t.Fatal("Remove(absent) changed ring")
	}
}

func TestBalanceAcrossWorkers(t *testing.T) {
	r := New()
	n := 8
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	counts := map[string]int{}
	ks := keys(8000)
	for _, k := range ks {
		counts[r.Get(k)]++
	}
	mean := float64(len(ks)) / float64(n)
	for w, c := range counts {
		ratio := float64(c) / mean
		// Multi-probe hashing bounds the peak load tightly (~1+1/k in
		// the multi-probe paper); the minimum is looser with only 8
		// single-point nodes. The bounds below catch clustering or
		// all-to-one bugs without overfitting the hash function.
		if ratio < 0.3 || ratio > 1.7 {
			t.Errorf("worker %s load ratio %.2f (count %d, mean %.0f)", w, ratio, c, mean)
		}
	}
}

func TestMinimalMovementOnScaleUp(t *testing.T) {
	r := New()
	n := 5
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	ks := keys(5000)
	before := r.Assign(ks)
	r.Add("w5")
	after := r.Assign(ks)

	moved := 0
	for _, k := range ks {
		if before[k] != after[k] {
			moved++
			if after[k] != "w5" {
				t.Fatalf("segment %s moved to %s, not the new worker", k, after[k])
			}
		}
	}
	frac := float64(moved) / float64(len(ks))
	// Ideal is 1/(n+1) ≈ 0.167; allow generous headroom but catch
	// rehash-everything bugs.
	if frac > 0.35 {
		t.Fatalf("scale-up moved %.1f%% of segments", 100*frac)
	}
	if moved == 0 {
		t.Fatal("new worker received nothing")
	}
}

func TestMinimalMovementOnScaleDown(t *testing.T) {
	r := New()
	for i := 0; i < 6; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	ks := keys(5000)
	before := r.Assign(ks)
	r.Remove("w3")
	after := r.Assign(ks)
	for _, k := range ks {
		if before[k] != "w3" && before[k] != after[k] {
			t.Fatalf("segment %s moved from %s to %s though its worker survived", k, before[k], after[k])
		}
		if after[k] == "w3" {
			t.Fatalf("segment %s still assigned to removed worker", k)
		}
	}
}

func TestGetNDistinct(t *testing.T) {
	r := New()
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	got := r.GetN("seg", 3)
	if len(got) != 3 {
		t.Fatalf("GetN = %v", got)
	}
	seen := map[string]bool{}
	for _, w := range got {
		if seen[w] {
			t.Fatalf("duplicate replica %s", w)
		}
		seen[w] = true
	}
	if got[0] != r.Get("seg") {
		t.Fatal("first replica must be the primary owner")
	}
	// Request more replicas than workers: clamps.
	if all := r.GetN("seg", 10); len(all) != 4 {
		t.Fatalf("GetN(10) = %v", all)
	}
}

// TestRemoveUnderLiveLookups pins the rebalance contract a VW's
// segment ownership leans on: once Remove(w) returns, no
// lookup — Get, GetN or a bulk Assign — may return w, even with
// lookups hammering the ring from many goroutines throughout the
// removal. Run with -race this also verifies the copy-on-write
// mutation discipline (Add/Remove build fresh point slices instead of
// shifting the shared backing array readers may be iterating).
func TestRemoveUnderLiveLookups(t *testing.T) {
	const workers = 6
	r := New()
	for i := 0; i < workers; i++ {
		r.Add(fmt.Sprintf("w%d", i))
	}
	ks := keys(300)

	var removed atomic.Bool // set AFTER Remove returns
	const victim = "w3"
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := ks[(i*7+g)%len(ks)]
				// Sample the flag BEFORE the lookup: if the removal
				// completed before we looked, the removed node must be
				// invisible. (Sampling after would race the removal
				// finishing mid-lookup, which is allowed to go either way.)
				wasRemoved := removed.Load()
				owner := r.Get(k)
				reps := r.GetN(k, 2)
				if wasRemoved {
					if owner == victim {
						t.Errorf("Get(%s) returned removed node", k)
						return
					}
					for _, w := range reps {
						if w == victim {
							t.Errorf("GetN(%s) returned removed node", k)
							return
						}
					}
				}
				if owner == "" || len(reps) == 0 {
					t.Errorf("lookup returned empty owner with %d nodes live", workers-1)
					return
				}
			}
		}(g)
	}
	// Let lookups get going, then remove the victim.
	for i := 0; i < 100; i++ {
		r.Assign(ks[:20])
	}
	r.Remove(victim)
	removed.Store(true)
	// Bulk assignment after removal: one consistent view, victim absent.
	for i := 0; i < 50; i++ {
		for k, w := range r.Assign(ks) {
			if w == victim {
				t.Fatalf("Assign(%s) returned removed node", k)
			}
		}
		for _, k := range ks[:50] {
			for _, w := range r.GetN(k, 2) {
				if w == victim {
					t.Fatalf("GetN(%s) returned removed node", k)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestAssignConsistentUnderRebalance: a bulk Assign must reflect
// exactly one ring generation — with a concurrent Remove, every key
// maps either to the pre-removal owner set (victim included) or the
// post-removal one, but a single Assign result never mixes "moved off
// the victim" with "still on the victim" for keys the victim owned.
func TestAssignConsistentUnderRebalance(t *testing.T) {
	for round := 0; round < 50; round++ {
		r := New()
		for i := 0; i < 5; i++ {
			r.Add(fmt.Sprintf("w%d", i))
		}
		ks := keys(400)
		before := r.Assign(ks)
		const victim = "w2"

		var wg sync.WaitGroup
		wg.Add(1)
		results := make(chan map[string]string, 1)
		go func() {
			defer wg.Done()
			results <- r.Assign(ks)
		}()
		r.Remove(victim)
		wg.Wait()
		got := <-results

		after := r.Assign(ks)
		preGen, postGen := false, false // evidence the pass saw each ring generation
		for _, k := range ks {
			switch got[k] {
			case before[k], after[k]:
				if got[k] == victim {
					preGen = true // still on the removed node: pre-removal view
				} else if before[k] == victim {
					postGen = true // moved off the victim: post-removal view
				}
			default:
				t.Fatalf("round %d: key %s assigned to %s, neither pre- (%s) nor post-removal (%s) owner", round, k, got[k], before[k], after[k])
			}
		}
		if preGen && postGen {
			t.Fatalf("round %d: one Assign pass mixed pre- and post-removal ring generations", round)
		}
	}
}

func TestNodesSortedStable(t *testing.T) {
	r := New()
	r.Add("b")
	r.Add("a")
	r.Add("c")
	if r.Len() != 3 {
		t.Fatal("Len != 3")
	}
	s := r.String()
	for _, n := range []string{"a@", "b@", "c@"} {
		if strings.Count(s, n) != 1 {
			t.Fatalf("String() = %q, want each worker once", s)
		}
	}
	if c := r.Clone().String(); c != s {
		t.Fatalf("a clone renders %q, the ring %q", c, s)
	}
}
