package obs

import (
	"math"
	"sync"
	"testing"
)

func TestEWMASeedsFromFirstObservation(t *testing.T) {
	var e EWMA
	if e.Value() != 0 || e.Count() != 0 {
		t.Fatalf("zero value not empty: value=%v count=%d", e.Value(), e.Count())
	}
	e.Observe(10)
	if e.Value() != 10 {
		t.Fatalf("first observation should seed the value, got %v", e.Value())
	}
	e.Observe(20)
	want := 0.2*20 + 0.8*10.0
	if math.Abs(e.Value()-want) > 1e-12 {
		t.Fatalf("value = %v, want %v", e.Value(), want)
	}
	if e.Count() != 2 {
		t.Fatalf("count = %d, want 2", e.Count())
	}
}

func TestEWMATracksShiftedStream(t *testing.T) {
	var e EWMA
	for i := 0; i < 100; i++ {
		e.Observe(1)
	}
	for i := 0; i < 100; i++ {
		e.Observe(5)
	}
	if v := e.Value(); math.Abs(v-5) > 0.01 {
		t.Fatalf("average should converge to the new level, got %v", v)
	}
}

func TestEWMAConcurrentObserve(t *testing.T) {
	var e EWMA
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				e.Observe(3)
			}
		}()
	}
	wg.Wait()
	if e.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", e.Count())
	}
	if math.Abs(e.Value()-3) > 1e-9 {
		t.Fatalf("constant stream: value = %v, want 3", e.Value())
	}
}
