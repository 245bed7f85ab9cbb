package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrency hammers one counter and one histogram from
// many goroutines and asserts exact totals — run with -race, this is
// the registry's data-race certification.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 32
	const perG = 2000

	c := r.Counter("hammer.counter")
	h := r.Histogram("hammer.hist")
	g := r.Gauge("hammer.gauge")

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(time.Duration(id*perG+j+1) * time.Microsecond)
				g.Set(int64(id))
				// Concurrent get-or-create of the same names must hand
				// back the same instances.
				r.Counter("hammer.counter").Add(0)
				r.Histogram("hammer.hist").Count()
			}
		}(i)
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if h.Sum() <= 0 {
		t.Fatalf("histogram sum = %v, want > 0", h.Sum())
	}
}

// TestGaugeDeltas certifies the level-gauge arithmetic (in-flight
// request counts) under concurrency: balanced Inc/Dec and ±Add must
// return the gauge to zero.
func TestGaugeDeltas(t *testing.T) {
	g := &Gauge{}
	g.Set(5)
	g.Add(3)
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	g.Set(0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Inc()
				g.Add(2)
				g.Add(-2)
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("balanced deltas left gauge at %d, want 0", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1000 observations spread 1..1000 µs.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 <= 0 || p99 <= 0 {
		t.Fatalf("quantiles must be positive: p50=%v p99=%v", p50, p99)
	}
	if p99 < p50 {
		t.Fatalf("p99 (%v) < p50 (%v)", p99, p50)
	}
	// Power-of-two buckets: p50 of uniform 1..1000µs lands in the
	// bucket containing 500µs, so the midpoint estimate must be within
	// a factor of 2 of the true median.
	if p50 < 250*time.Microsecond || p50 > 1*time.Millisecond {
		t.Fatalf("p50 = %v, want within [250µs, 1ms]", p50)
	}
	if h.Quantile(0.5) != p50 {
		t.Fatal("Quantile must be deterministic for a fixed histogram")
	}
	var empty Histogram
	if empty.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestSnapshotAndWriters(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.counter").Add(7)
	r.Gauge("a.gauge").Set(-3)
	r.Histogram("c.lat").Observe(5 * time.Millisecond)
	r.RegisterFunc("d.func", func() int64 { return 42 })

	snap := r.Snapshot()
	got := map[string]int64{}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Key >= snap[i].Key {
			t.Fatalf("snapshot not sorted: %q >= %q", snap[i-1].Key, snap[i].Key)
		}
	}
	for _, kv := range snap {
		got[kv.Key] = kv.Value
	}
	if got["b.counter"] != 7 || got["a.gauge"] != -3 || got["d.func"] != 42 {
		t.Fatalf("snapshot values wrong: %v", got)
	}
	if got["c.lat.count"] != 1 {
		t.Fatalf("histogram count in snapshot = %d, want 1", got["c.lat.count"])
	}
	if _, ok := got["c.lat.p99_us"]; !ok {
		t.Fatal("snapshot missing histogram p99 expansion")
	}

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]int64
	if err := json.Unmarshal(js.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON dump not parseable: %v", err)
	}
	if decoded["d.func"] != 42 {
		t.Fatalf("JSON dump value wrong: %v", decoded)
	}
}

func TestRegisterFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.RegisterFunc("x", func() int64 { return 1 })
	r.RegisterFunc("x", func() int64 { return 2 })
	for _, kv := range r.Snapshot() {
		if kv.Key == "x" && kv.Value != 2 {
			t.Fatalf("x = %d, want 2 (replacement)", kv.Value)
		}
	}
}
