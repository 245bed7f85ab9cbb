package bitset

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 7 {
		t.Fatalf("Clear(64) failed: test=%v count=%d", b.Test(64), b.Count())
	}
}

func TestNewFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100} {
		b := NewFull(n)
		if b.Count() != n {
			t.Errorf("NewFull(%d).Count = %d", n, b.Count())
		}
	}
}

func TestNotRespectsLogicalLength(t *testing.T) {
	b := New(70)
	b.Not()
	if b.Count() != 70 {
		t.Fatalf("Not on empty 70-bit set: Count = %d, want 70", b.Count())
	}
	b.Not()
	if b.Count() != 0 {
		t.Fatalf("double Not: Count = %d, want 0", b.Count())
	}
}

func TestBooleanOps(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	a.Set(50)
	a.Set(99)
	b.Set(50)
	b.Set(2)

	and := a.Clone()
	and.And(b)
	if got := and.Ones(); len(got) != 1 || got[0] != 50 {
		t.Fatalf("And = %v, want [50]", got)
	}

	or := a.Clone()
	or.Or(b)
	if or.Count() != 4 {
		t.Fatalf("Or count = %d, want 4", or.Count())
	}

	an := a.Clone()
	an.AndNot(b)
	if got := an.Ones(); len(got) != 2 || got[0] != 1 || got[1] != 99 {
		t.Fatalf("AndNot = %v, want [1 99]", got)
	}
}

func TestOpsPanicOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on length mismatch")
		}
	}()
	New(10).And(New(11))
}

func TestForEachEarlyStop(t *testing.T) {
	b := New(100)
	for i := 0; i < 100; i += 10 {
		b.Set(i)
	}
	var visited []int
	b.ForEach(func(i int) bool {
		visited = append(visited, i)
		return len(visited) < 3
	})
	if len(visited) != 3 || visited[2] != 20 {
		t.Fatalf("visited = %v", visited)
	}
}

func TestNextSet(t *testing.T) {
	b := New(200)
	b.Set(5)
	b.Set(64)
	b.Set(199)
	cases := []struct{ from, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 199}, {199, 199}, {200, -1},
	}
	for _, c := range cases {
		if got := b.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	if New(10).NextSet(0) != -1 {
		t.Error("NextSet on empty should be -1")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 64, 65, 1000} {
		b := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				b.Set(i)
			}
		}
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var c Bitset
		if err := c.UnmarshalBinary(data); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if c.Len() != b.Len() || c.Count() != b.Count() {
			t.Fatalf("n=%d: roundtrip mismatch", n)
		}
		for i := 0; i < n; i++ {
			if b.Test(i) != c.Test(i) {
				t.Fatalf("n=%d: bit %d differs", n, i)
			}
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	var b Bitset
	if err := b.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer should fail")
	}
	good, _ := NewFull(100).MarshalBinary()
	if err := b.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Error("truncated payload should fail")
	}
	if err := b.UnmarshalBinary(bytes.Repeat([]byte{0xff}, 8)); err == nil {
		t.Errorf("a length of 2^64-1 with no payload decoded as Len %d", b.Len())
	}
	one, _ := New(1).MarshalBinary()
	one[8] = 0xff
	one[9] = 0xff
	if err := b.UnmarshalBinary(one); err == nil {
		t.Errorf("bits past the length decoded as Count %d of Len %d", b.Count(), b.Len())
	}
}

// FuzzUnmarshalBinary: no input panics the decoder, and what it
// accepts marshals back to the same bytes.
func FuzzUnmarshalBinary(f *testing.F) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		full, _ := NewFull(n).MarshalBinary()
		f.Add(full)
	}
	f.Add(bytes.Repeat([]byte{0xff}, 8))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Bitset
		if b.UnmarshalBinary(data) != nil {
			return
		}
		out, err := b.MarshalBinary()
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("accepted %x, re-marshals to %x (%v)", data, out, err)
		}
	})
}

func TestDeMorganProperty(t *testing.T) {
	// ¬(a ∧ b) == ¬a ∨ ¬b over the logical length.
	f := func(xs, ys []bool) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if xs[i] {
				a.Set(i)
			}
			if ys[i] {
				b.Set(i)
			}
		}
		left := a.Clone()
		left.And(b)
		left.Not()
		na := a.Clone()
		na.Not()
		nb := b.Clone()
		nb.Not()
		na.Or(nb)
		for i := 0; i < n; i++ {
			if left.Test(i) != na.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountMatchesOnesProperty(t *testing.T) {
	f := func(xs []bool) bool {
		b := New(len(xs))
		want := 0
		for i, x := range xs {
			if x {
				b.Set(i)
				want++
			}
		}
		return b.Count() == want && len(b.Ones()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
