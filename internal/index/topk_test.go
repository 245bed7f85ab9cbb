package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTopKKeepsSmallest(t *testing.T) {
	tk := NewTopK(3)
	for _, d := range []float32{5, 1, 9, 3, 7, 2} {
		tk.Push(Candidate{ID: int64(d * 10), Dist: d})
	}
	res := tk.Results()
	want := []float32{1, 2, 3}
	if len(res) != 3 {
		t.Fatalf("len = %d", len(res))
	}
	for i := range want {
		if res[i].Dist != want[i] {
			t.Fatalf("res[%d] = %v, want %v", i, res[i].Dist, want[i])
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10)
	tk.Push(Candidate{1, 2.0})
	tk.Push(Candidate{2, 1.0})
	res := tk.Results()
	if len(res) != 2 || res[0].ID != 2 {
		t.Fatalf("res = %v", res)
	}
}

func TestTopKWouldAccept(t *testing.T) {
	tk := NewTopK(2)
	if !tk.WouldAccept(100) {
		t.Fatal("under-filled collector must accept anything")
	}
	tk.Push(Candidate{1, 1})
	tk.Push(Candidate{2, 2})
	if tk.WouldAccept(3) {
		t.Fatal("3 should not beat worst=2")
	}
	if !tk.WouldAccept(1.5) {
		t.Fatal("1.5 should beat worst=2")
	}
	if w, ok := tk.Worst(); !ok || w != 2 {
		t.Fatalf("Worst = %v, %v", w, ok)
	}
}

func TestTopKZeroK(t *testing.T) {
	tk := NewTopK(0) // clamps to 1
	tk.Push(Candidate{1, 5})
	tk.Push(Candidate{2, 3})
	res := tk.Results()
	if len(res) != 1 || res[0].ID != 2 {
		t.Fatalf("res = %v", res)
	}
}

func TestTopKMatchesSortProperty(t *testing.T) {
	f := func(dists []float32, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		tk := NewTopK(k)
		for i, d := range dists {
			if d != d { // skip NaN
				return true
			}
			tk.Push(Candidate{ID: int64(i), Dist: d})
		}
		got := tk.Results()
		sorted := append([]float32{}, dists...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		n := k
		if n > len(sorted) {
			n = len(sorted)
		}
		if len(got) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got[i].Dist != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSortCandidatesTieBreak(t *testing.T) {
	cs := []Candidate{{5, 1}, {2, 1}, {9, 0.5}}
	SortCandidates(cs)
	if cs[0].ID != 9 || cs[1].ID != 2 || cs[2].ID != 5 {
		t.Fatalf("sorted = %v", cs)
	}
}

func TestMergeTopK(t *testing.T) {
	a := []Candidate{{1, 0.1}, {2, 0.5}, {3, 0.9}}
	b := []Candidate{{4, 0.2}, {5, 0.6}}
	c := []Candidate{{6, 0.05}}
	merged := MergeTopK(3, a, b, c)
	wantIDs := []int64{6, 1, 4}
	if len(merged) != 3 {
		t.Fatalf("len = %d", len(merged))
	}
	for i, w := range wantIDs {
		if merged[i].ID != w {
			t.Fatalf("merged[%d].ID = %d, want %d", i, merged[i].ID, w)
		}
	}
}

// Regression: a later list's candidate with Dist == worst but a
// smaller ID must displace the kept candidate (SortCandidates breaks
// distance ties by ID). The pre-fix strict WouldAccept broke out of
// the list early and kept {11, 5} instead of {3, 5}.
func TestMergeTopKTieAtBoundary(t *testing.T) {
	a := []Candidate{{ID: 10, Dist: 1}, {ID: 11, Dist: 5}}
	b := []Candidate{{ID: 3, Dist: 5}, {ID: 20, Dist: 9}}
	merged := MergeTopK(2, a, b)
	var union []Candidate
	union = append(union, a...)
	union = append(union, b...)
	SortCandidates(union)
	want := union[:2]
	if len(merged) != 2 || merged[0] != want[0] || merged[1] != want[1] {
		t.Fatalf("merged = %v, want %v", merged, want)
	}
	if merged[1].ID != 3 {
		t.Fatalf("tie at k boundary kept ID %d, want 3", merged[1].ID)
	}
}

// With heavily quantized distances (many exact ties) a parallel-style
// merge must still equal the global sort — the determinism contract
// of the (Dist, ID) heap order.
func TestMergeTopKTiesEquivalentToGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		var lists [][]Candidate
		var all []Candidate
		id := int64(0)
		for l := 0; l < 4; l++ {
			var list []Candidate
			for i := 0; i < 30; i++ {
				c := Candidate{ID: id, Dist: float32(rng.Intn(5))} // only 5 distinct distances
				id++
				list = append(list, c)
				all = append(all, c)
			}
			SortCandidates(list)
			lists = append(lists, list)
		}
		merged := MergeTopK(10, lists...)
		SortCandidates(all)
		for i := 0; i < 10; i++ {
			if merged[i] != all[i] {
				t.Fatalf("trial %d: merge diverges at %d: %v != %v", trial, i, merged[i], all[i])
			}
		}
	}
}

// TopK itself must keep the smaller IDs at distance ties regardless of
// insertion order.
func TestTopKTieBreakByID(t *testing.T) {
	perm := []Candidate{{ID: 7, Dist: 2}, {ID: 1, Dist: 2}, {ID: 4, Dist: 2}, {ID: 2, Dist: 2}, {ID: 9, Dist: 1}}
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		tk := NewTopK(3)
		for _, c := range perm {
			tk.Push(c)
		}
		res := tk.Results()
		if res[0].ID != 9 || res[1].ID != 1 || res[2].ID != 2 {
			t.Fatalf("trial %d: res = %v, want IDs 9,1,2", trial, res)
		}
	}
}

func TestTopKResetAndAppendResults(t *testing.T) {
	tk := GetTopK(2)
	tk.Push(Candidate{ID: 1, Dist: 3})
	tk.Push(Candidate{ID: 2, Dist: 1})
	tk.Push(Candidate{ID: 3, Dist: 2})
	got := tk.AppendResults(nil)
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 3 {
		t.Fatalf("AppendResults = %v", got)
	}
	if tk.Len() != 0 {
		t.Fatalf("collector not emptied: len=%d", tk.Len())
	}
	// Reuse after reset: prior contents must not leak through.
	tk.Reset(1)
	tk.Push(Candidate{ID: 9, Dist: 7})
	got = tk.AppendResults(got[:0])
	if len(got) != 1 || got[0].ID != 9 {
		t.Fatalf("after Reset: %v", got)
	}
	PutTopK(tk)
}

func TestMergeTopKEquivalentToGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var lists [][]Candidate
	var all []Candidate
	id := int64(0)
	for l := 0; l < 5; l++ {
		var list []Candidate
		for i := 0; i < 50; i++ {
			c := Candidate{ID: id, Dist: rng.Float32()}
			id++
			list = append(list, c)
			all = append(all, c)
		}
		SortCandidates(list)
		lists = append(lists, list)
	}
	merged := MergeTopK(20, lists...)
	SortCandidates(all)
	for i := 0; i < 20; i++ {
		if merged[i] != all[i] {
			t.Fatalf("merge diverges at %d: %v != %v", i, merged[i], all[i])
		}
	}
}

// TestSelectCandidatesPrefix: for every n, SelectCandidates leaves in
// cs[:n] exactly the candidates a full sort puts there — ties on
// distance broken by ID — including the already sorted and reversed
// inputs a middle pivot must not degrade on.
func TestSelectCandidatesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, size := range []int{0, 1, 2, 3, 17, 200} {
		base := make([]Candidate, size)
		for i := range base {
			base[i] = Candidate{ID: int64(rng.Intn(1000)), Dist: float32(rng.Intn(5))}
		}
		sorted := append([]Candidate(nil), base...)
		SortCandidates(sorted)
		reversed := append([]Candidate(nil), sorted...)
		for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
			reversed[i], reversed[j] = reversed[j], reversed[i]
		}
		for _, in := range [][]Candidate{base, sorted, reversed} {
			for n := 0; n <= size; n++ {
				cs := append([]Candidate(nil), in...)
				SelectCandidates(cs, n)
				SortCandidates(cs[:n])
				for i := 0; i < n; i++ {
					if cs[i] != sorted[i] {
						t.Fatalf("size %d, n %d: position %d is %+v, full sort %+v", size, n, i, cs[i], sorted[i])
					}
				}
			}
		}
	}
}
