package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Sampler picks the statements an engine traces: every
// one when Every is 1, one in Every otherwise, none when Every <= 0.
type Sampler struct {
	Every int
	seq   atomic.Uint64
}

// StartStatement opens the trace of one statement of kind: the trace
// ctx already carries (EXPLAIN ANALYZE's, a caller's), else a new one
// whose root span is named root when s samples the statement, else
// none — an untraced statement gets ctx back as it came. A traced
// statement's ctx carries the trace and its ID (the one already on ctx,
// or a new one); the root span records the statement kind and, when
// queueWait is positive, a "queue" child span of that length.
func (s *Sampler) StartStatement(ctx context.Context, root, kind string, queueWait time.Duration) (context.Context, *Trace) {
	t := TraceFrom(ctx)
	if t == nil {
		if s.Every <= 0 || s.Every > 1 && s.seq.Add(1)%uint64(s.Every) != 1 {
			return ctx, nil // sampled out
		}
		t = NewTrace(root)
		ctx = WithTrace(ctx, t)
	}
	id := TraceIDFrom(ctx)
	if id == "" {
		id = NewTraceID()
		ctx = WithTraceID(ctx, id)
	}
	t.SetID(id)
	t.root.Set("statement", kind)
	if queueWait > 0 {
		t.root.ChildDur("queue", queueWait)
	}
	return ctx, t
}

// EndStatement ends a statement's root span and adds the statement to
// the trace ring: its kind, its text, how long it took, its error and
// whether it crossed the slow-query threshold. No-op on nil.
func (t *Trace) EndStatement(kind, query string, dur time.Duration, err error, slow bool) {
	if t == nil {
		return
	}
	t.Finish()
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	Traces().Add(&TraceRecord{
		TraceID:   t.id,
		Statement: kind,
		Query:     TruncateQuery(query),
		Start:     t.root.start,
		Duration:  dur,
		Error:     errStr,
		Slow:      slow,
		Root:      t.root,
	})
}

// TruncateQuery bounds the statement text kept in logs and the trace
// ring.
func TruncateQuery(s string) string {
	const max = 200
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}

// TraceRecord is one finished query trace as retained by the in-process
// ring buffer. Records are immutable after Add (the engine only
// publishes a trace once its root span has ended), so snapshots can be
// serialized without holding the ring's lock.
type TraceRecord struct {
	TraceID   string
	Statement string // statement kind (select, insert, …)
	Query     string // the statement text, truncated
	Start     time.Time
	Duration  time.Duration
	Error     string // "" on success
	Slow      bool   // duration crossed the slow-query threshold
	Root      *Span
}

// TraceLog is a bounded ring of recent finished traces backing
// /debug/traces and SHOW TRACES. Safe for concurrent use.
type TraceLog struct {
	mu    sync.Mutex
	buf   []*TraceRecord
	next  int   // ring write cursor
	total int64 // lifetime adds (for dropped accounting)
}

// NewTraceLog builds a ring retaining up to capacity finished traces
// (capacity < 1 is clamped to 1).
func NewTraceLog(capacity int) *TraceLog {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceLog{buf: make([]*TraceRecord, 0, capacity)}
}

// Add retains a finished trace, evicting the oldest when full.
func (l *TraceLog) Add(r *TraceRecord) {
	if l == nil || r == nil {
		return
	}
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, r)
	} else {
		l.buf[l.next] = r
		l.next = (l.next + 1) % cap(l.buf)
	}
	l.total++
	l.mu.Unlock()
}

// Snapshot returns the retained traces, newest first.
func (l *TraceLog) Snapshot() []*TraceRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.buf)
	out := make([]*TraceRecord, 0, n)
	// Before the ring wraps, the newest record is the last append; after
	// it wraps, the write cursor points at the oldest record.
	newest := n - 1
	if n == cap(l.buf) {
		newest = (l.next - 1 + n) % n
	}
	for i := 0; i < n; i++ {
		out = append(out, l.buf[(newest-i+n)%n])
	}
	return out
}

// Len reports how many traces are retained.
func (l *TraceLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Total reports lifetime Add calls (retained + evicted).
func (l *TraceLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

var defaultTraces = NewTraceLog(256)

// Traces is the process-wide trace ring (capacity 256), fed by every
// engine in the process and read by /debug/traces and SHOW TRACES.
func Traces() *TraceLog { return defaultTraces }

// SpanDump is the JSON shape of one span in a /debug/traces dump.
type SpanDump struct {
	ID         int64      `json:"id"`
	Name       string     `json:"name"`
	Start      time.Time  `json:"start"`
	DurationUS int64      `json:"duration_us"`
	Attrs      []Attr     `json:"attrs,omitempty"`
	Children   []SpanDump `json:"children,omitempty"`
}

// Dump renders the span subtree as its JSON shape (zero value on nil).
func (s *Span) Dump() SpanDump {
	if s == nil {
		return SpanDump{}
	}
	s.mu.Lock()
	d := SpanDump{
		ID:         s.id,
		Name:       s.name,
		Start:      s.start,
		DurationUS: s.dur.Microseconds(),
		Attrs:      append([]Attr(nil), s.attrs...),
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.Dump())
	}
	return d
}

// TraceDump is the JSON shape of one retained trace.
type TraceDump struct {
	TraceID    string    `json:"trace_id"`
	Statement  string    `json:"statement,omitempty"`
	Query      string    `json:"query,omitempty"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Error      string    `json:"error,omitempty"`
	Slow       bool      `json:"slow,omitempty"`
	Root       SpanDump  `json:"root"`
}

// Dump renders the record as its JSON shape.
func (r *TraceRecord) Dump() TraceDump {
	return TraceDump{
		TraceID:    r.TraceID,
		Statement:  r.Statement,
		Query:      r.Query,
		Start:      r.Start,
		DurationUS: r.Duration.Microseconds(),
		Error:      r.Error,
		Slow:       r.Slow,
		Root:       r.Root.Dump(),
	}
}
