package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// NewTraceID mints a 16-hex-char query trace ID. Trace IDs correlate
// one statement across the client, the server's access log, the
// engine's span tree and the storage layer's retry/fault logs; the
// server mints one per request unless the client sent its own in the
// X-BH-Trace-Id header.
func NewTraceID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// ValidTraceID reports whether a caller-supplied trace ID is usable:
// 1–64 characters of hex and dashes (so W3C-style IDs pass through
// unchanged). Anything else is replaced by a freshly minted ID.
func ValidTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F', c == '-':
		default:
			return false
		}
	}
	return true
}

// traceIDKey carries the query's trace ID in a context.Context from
// the server boundary down through core → exec → lsm/wal → storage, so
// any layer's structured logs can stamp it without plumbing an extra
// parameter.
type traceIDKey struct{}

// WithTraceID attaches a trace ID to ctx.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom extracts the trace ID from ctx ("" when absent; nil ctx
// is safe).
func TraceIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// traceKey carries the statement's *Trace in a context.Context beside
// its ID: the executor's spans, the caches' tallies and the storage
// layer's read and retry counters all find it there.
type traceKey struct{}

// WithTrace attaches a statement's trace to ctx (a nil trace attaches
// nothing).
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace ctx carries (nil when the statement is
// untraced; nil ctx is safe). It allocates nothing.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// Trace is the per-query span tree behind EXPLAIN ANALYZE, the trace
// ring buffer and /debug/traces, and the one carrier of the query's
// accounting: it rides the query's context (WithTrace). A nil *Trace
// means tracing is off, and every method (including the tallies and all
// Span methods) is a no-op on a nil receiver — untraced queries pay
// zero allocations for the instrumentation.
type Trace struct {
	root *Span
	id   string
	gen  atomic.Int64 // span ID allocator (root = 1)
	// ColCache tallies column-cache hit/miss/bypass per read.
	ColCache CacheTally
	// IdxCache tallies vector-index-cache hit/miss per load.
	IdxCache CacheTally
	// The blob-store work charged to the query: reads (counted at one
	// layer, the segment and index reads, so a read retried below counts
	// once), their bytes and summed wall time across concurrent scans,
	// and the retries the store layer made.
	reads, readBytes, readNanos, retries atomic.Int64
}

// NewTrace starts a trace whose root span is named name.
func NewTrace(name string) *Trace {
	t := &Trace{}
	t.root = newSpan(name, &t.gen)
	return t
}

// SetID stamps the query's trace ID on the trace (nil-safe).
func (t *Trace) SetID(id string) {
	if t != nil {
		t.id = id
	}
}

// ID returns the stamped trace ID ("" on nil or unstamped traces).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Span returns the root span (nil on a nil trace).
func (t *Trace) Span() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span.
func (t *Trace) Finish() {
	if t != nil {
		t.root.End()
	}
}

// ColTally returns the column-cache tally sink (nil on a nil trace).
func (t *Trace) ColTally() *CacheTally {
	if t == nil {
		return nil
	}
	return &t.ColCache
}

// IdxTally returns the index-cache tally sink (nil on a nil trace).
func (t *Trace) IdxTally() *CacheTally {
	if t == nil {
		return nil
	}
	return &t.IdxCache
}

// AddRead records one blob read of n bytes taking d.
func (t *Trace) AddRead(n int64, d time.Duration) {
	if t == nil {
		return
	}
	t.reads.Add(1)
	t.readBytes.Add(n)
	t.readNanos.Add(d.Nanoseconds())
}

// Reads returns the blob reads recorded: how many, their bytes and
// their summed time (zeros on nil).
func (t *Trace) Reads() (reads, bytes int64, dur time.Duration) {
	if t == nil {
		return 0, 0, 0
	}
	return t.reads.Load(), t.readBytes.Load(), time.Duration(t.readNanos.Load())
}

// AddRetry records one store retry.
func (t *Trace) AddRetry() {
	if t != nil {
		t.retries.Add(1)
	}
}

// Retries returns the store retries recorded (0 on nil).
func (t *Trace) Retries() int64 {
	if t == nil {
		return 0
	}
	return t.retries.Load()
}

// Lines renders the executed span tree plus the cache tallies as
// indented text lines (the body of EXPLAIN ANALYZE).
func (t *Trace) Lines() []string {
	if t == nil {
		return nil
	}
	var out []string
	t.root.appendLines(&out, 0)
	ch, cm, cb := t.ColCache.Values()
	ih, im, _ := t.IdxCache.Values()
	out = append(out, fmt.Sprintf("cache: column hits=%d misses=%d bypasses=%d | index hits=%d misses=%d",
		ch, cm, cb, ih, im))
	return out
}

// CacheTally accumulates cache hit/miss/bypass counts for one query.
// All methods are nil-receiver-safe.
type CacheTally struct {
	hits, misses, bypasses int64
	mu                     sync.Mutex
}

// Hit records a cache hit.
func (c *CacheTally) Hit() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

// Miss records a cache miss.
func (c *CacheTally) Miss() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// Bypass records an admission-control bypass.
func (c *CacheTally) Bypass() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.bypasses++
	c.mu.Unlock()
}

// Values reads the tally.
func (c *CacheTally) Values() (hits, misses, bypasses int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.bypasses
}

// Attr is one span attribute.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"value"`
}

// Span is one timed node of a trace. Child creation and attribute
// writes are safe from concurrent goroutines (the VW scatters
// per-segment scans across workers). Each span carries a small integer
// ID unique within its trace (root = 1) so /debug/traces dumps are
// addressable.
type Span struct {
	name  string
	start time.Time
	id    int64
	gen   *atomic.Int64 // shared per-trace span ID allocator

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span

	// attrBuf is inline room for the first attributes: most spans carry
	// four or fewer, so attrs starts as a slice of it and only a fifth
	// attribute allocates.
	attrBuf [4]Attr
}

func newSpan(name string, gen *atomic.Int64) *Span {
	s := &Span{name: name, start: Now(), gen: gen}
	s.attrs = s.attrBuf[:0]
	if gen != nil {
		s.id = gen.Add(1)
	}
	return s
}

// Child starts a new child span (nil-safe: returns nil on nil).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name, s.gen)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildDur attaches an already-finished child span with an explicit
// duration (start is back-dated so start+dur ≈ now). The engine uses it
// to materialize phases measured outside the span tree — admission
// queue wait and aggregate storage-read time — as first-class spans.
func (s *Span) ChildDur(name string, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name, s.gen)
	c.start = c.start.Add(-d)
	c.dur = d
	c.ended = true
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stops the span's clock. Idempotent; later Ends keep the first
// duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
}

// Set records a string attribute.
func (s *Span) Set(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, val})
	s.mu.Unlock()
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Set(key, strconv.FormatInt(v, 10))
}

// SetFloat records a float attribute with compact formatting (%.4g).
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.Set(key, strconv.FormatFloat(v, 'g', 4, 64))
}

// SetBool records a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.Set(key, strconv.FormatBool(v))
}

// SetDur records a duration attribute.
func (s *Span) SetDur(key string, d time.Duration) {
	if s == nil {
		return
	}
	s.Set(key, fmtDur(d))
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's trace-local ID (0 on nil).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Start returns the span's wall-clock start time (zero on nil).
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the measured duration (End's clock; zero if the
// span never ended).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Children returns a snapshot of the child spans.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns a snapshot of the attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Attr returns the value of the named attribute ("" when unset).
func (s *Span) Attr(key string) string {
	for _, a := range s.Attrs() {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

func (s *Span) appendLines(out *[]string, depth int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	name, dur := s.name, s.dur
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(name)
	b.WriteString("  (")
	b.WriteString(fmtDur(dur))
	b.WriteString(")")
	for _, a := range attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Val)
	}
	*out = append(*out, b.String())
	for _, c := range children {
		c.appendLines(out, depth+1)
	}
}

// fmtDur renders a duration with sub-millisecond precision but without
// the noise of full nanosecond strings.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
