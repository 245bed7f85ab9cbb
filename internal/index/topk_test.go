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
	if w, ok := tk.Worst(); !ok || w != 3 {
		t.Fatalf("Worst = %v, %v", w, ok)
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
	if _, ok := tk.Worst(); ok {
		t.Fatal("Worst reports a bound with fewer than k held")
	}
	res := tk.Results()
	if len(res) != 2 || res[0].ID != 2 {
		t.Fatalf("res = %v", res)
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
