// Package obs is BlendHouse's engine-wide observability layer: a
// pure-stdlib metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms with percentile readout) plus the
// lightweight per-query span tracing behind EXPLAIN ANALYZE. The
// paper's headline mechanisms — plan A/B/C selection, vector search
// serving (Fig 11), cache-aware preload, adaptive semantic pruning —
// all leave their fingerprints here at runtime instead of being
// visible only in the offline bench harness.
//
// Everything is safe for concurrent use. Tracing is strictly
// pay-as-you-go: every Trace/Span/CacheTally method is a no-op on a
// nil receiver, so untraced queries allocate nothing and touch no
// locks (see trace.go).
package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Now is the clock used by every obs timestamp (spans, latency
// observations). Callers that want shell-visible timings to agree with
// trace timings use the same function.
func Now() time.Time { return time.Now() }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the counter.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease) — the shape
// used by level-style gauges such as in-flight request counts.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of every latency histogram:
// bucket i counts observations with 2^i ns <= d < 2^(i+1) ns, which
// spans sub-microsecond ticks to multi-hour outliers with no
// per-observation allocation.
const histBuckets = 64

// Histogram is a fixed-bucket (power-of-two nanosecond) latency
// histogram. Observations and reads are lock-free.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	b := bits.Len64(uint64(ns)) - 1
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Buckets snapshots the per-bucket counts. Bucket i holds observations
// with 2^i ns <= d < 2^(i+1) ns.
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile returns the approximate q-quantile (0 < q <= 1) as the
// geometric midpoint of the bucket containing the rank. Zero when
// empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			lo := int64(1) << uint(i)
			return time.Duration(lo + lo/2)
		}
	}
	return h.Sum()
}

// KV is one snapshot entry.
type KV struct {
	Key   string
	Value int64
}

// Registry holds named metrics. Metrics are created on first use and
// never removed; RegisterFunc installs (or replaces) a callback gauge,
// which is how existing stat sources (cache.Stats(), planner stats)
// surface without a second bookkeeping path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() int64{},
	}
}

var std = NewRegistry()

// Default returns the process-wide registry that SHOW METRICS and the
// debug HTTP endpoint read.
func Default() *Registry { return std }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc installs a callback gauge evaluated at snapshot time,
// replacing any previous function under the same name.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Snapshot evaluates every metric and returns sorted key/value pairs.
// Histograms expand into .count, .sum_us, .p50_us and .p99_us entries.
func (r *Registry) Snapshot() []KV {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.Unlock()

	var out []KV
	for k, c := range counters {
		out = append(out, KV{k, c.Value()})
	}
	for k, g := range gauges {
		out = append(out, KV{k, g.Value()})
	}
	for k, fn := range funcs {
		out = append(out, KV{k, fn()})
	}
	for k, h := range hists {
		out = append(out,
			KV{k + ".count", h.Count()},
			KV{k + ".sum_us", h.Sum().Microseconds()},
			KV{k + ".p50_us", h.Quantile(0.50).Microseconds()},
			KV{k + ".p99_us", h.Quantile(0.99).Microseconds()},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// WriteJSON renders the snapshot as a flat JSON object (the /vars
// debug endpoint).
func (r *Registry) WriteJSON(w io.Writer) error {
	m := make(map[string]int64)
	for _, kv := range r.Snapshot() {
		m[kv.Key] = kv.Value
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
