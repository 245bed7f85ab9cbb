package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"blendhouse/internal/core"
	"blendhouse/internal/obs"
	"blendhouse/internal/storage"
	"blendhouse/pkg/api"
	"blendhouse/pkg/client"
)

// syncBuffer is a goroutine-safe log sink for ConfigureLogging.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// captureJSONLogs redirects the process logger to a buffer (JSON, Info)
// for the duration of the test.
func captureJSONLogs(t *testing.T) *syncBuffer {
	t.Helper()
	buf := &syncBuffer{}
	if err := obs.ConfigureLogging(slog.LevelInfo, "json", buf); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = obs.ConfigureLogging(slog.LevelWarn, "text", nil) })
	return buf
}

// TestEndToEndTracePropagation is the PR's acceptance test: one trace
// ID, chosen by the client, is visible at every observability surface —
// the query response, the server's JSON access log, and /debug/traces —
// and the recorded span tree covers queue wait, execution, and storage
// I/O with real durations.
func TestEndToEndTracePropagation(t *testing.T) {
	logBuf := captureJSONLogs(t)

	// Latency-simulated remote store so the storage span has measurable
	// duration; sample every statement into the trace ring.
	store := storage.NewRemoteStore(storage.NewMemStore(), storage.RemoteConfig{OpLatency: 2 * time.Millisecond})
	e, err := core.New(core.Config{Store: store, SegmentRows: 25, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	mustExec(t, e, `CREATE TABLE items (
		id UInt64,
		label String,
		embedding Array(Float32),
		INDEX ann_idx embedding TYPE FLAT('DIM=8')
	) ORDER BY id`)
	var b []byte
	b = append(b, "INSERT INTO items VALUES "...)
	for i := 0; i < 100; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		vp := make([]float32, tDim)
		for d := range vp {
			vp[d] = float32((i*7+d)%13) / 13
		}
		b = append(b, []byte(vecLitRow(i, vp))...)
	}
	mustExec(t, e, string(b))
	flush(t, e, "items")

	s, c := startServer(t, e, Config{Admission: AdmissionConfig{MaxConcurrent: 1, MaxQueue: 8}})

	// Occupy the single execution slot so the traced statement measurably
	// queues (the queue span needs a non-zero duration).
	release, _, err := s.adm.AcquireTimed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const wantID = "e2e0-cafe-0001" // hex+dash: passes server-side validation
	type outcome struct {
		res *client.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, qerr := c.Query(context.Background(), testQuery(), client.WithTraceID(wantID))
		done <- outcome{res, qerr}
	}()
	time.Sleep(30 * time.Millisecond)
	release()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}

	// 1. The response echoes the client's trace ID.
	if out.res.TraceID != wantID {
		t.Fatalf("Result.TraceID = %q, want %q", out.res.TraceID, wantID)
	}
	if len(out.res.Rows) == 0 {
		t.Fatal("query returned no rows")
	}

	// 2. The JSON access log carries the same ID on the request record,
	// with the measured queue wait. The access log is written in a defer
	// that can race the response, so poll briefly.
	var accessRec map[string]any
	deadline := time.Now().Add(2 * time.Second)
	for accessRec == nil {
		for _, line := range strings.Split(logBuf.String(), "\n") {
			if line == "" || !strings.Contains(line, wantID) {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("access log line is not JSON: %q: %v", line, err)
			}
			if rec["msg"] == "request" {
				accessRec = rec
				break
			}
		}
		if accessRec == nil {
			if time.Now().After(deadline) {
				t.Fatalf("no access log record with trace ID %s in:\n%s", wantID, logBuf.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if accessRec["trace_id"] != wantID {
		t.Fatalf("access log trace_id = %v", accessRec["trace_id"])
	}
	if accessRec["component"] != "server" || accessRec["route"] != "query" {
		t.Errorf("access log record = %v", accessRec)
	}
	if qw, ok := accessRec["queue_wait_ms"].(float64); !ok || qw <= 0 {
		t.Errorf("access log queue_wait_ms = %v, want > 0", accessRec["queue_wait_ms"])
	}
	if st, ok := accessRec["status"].(float64); !ok || int(st) != http.StatusOK {
		t.Errorf("access log status = %v, want 200", accessRec["status"])
	}

	// 3. /debug/traces retains the span tree under the same ID.
	dbg := httptest.NewServer(DebugHandler())
	defer dbg.Close()
	resp, err := http.Get(dbg.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("/debug/traces Content-Type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	var dump struct {
		Retained int             `json:"retained"`
		Total    int64           `json:"total"`
		Traces   []obs.TraceDump `json:"traces"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("/debug/traces is not JSON: %v\n%s", err, raw)
	}
	var td *obs.TraceDump
	for i := range dump.Traces {
		if dump.Traces[i].TraceID == wantID {
			td = &dump.Traces[i]
			break
		}
	}
	if td == nil {
		t.Fatalf("trace %s not in /debug/traces (%d retained)", wantID, dump.Retained)
	}
	if td.Statement != "select" || td.DurationUS <= 0 {
		t.Errorf("trace dump = %+v, want select with positive duration", td)
	}

	spans := map[string]obs.SpanDump{}
	for _, c := range td.Root.Children {
		spans[c.Name] = c
	}
	for _, name := range []string{"queue", "exec", "storage"} {
		sp, ok := spans[name]
		if !ok {
			t.Errorf("span %q missing from trace (have %v)", name, spanNames(td.Root.Children))
			continue
		}
		if sp.DurationUS <= 0 {
			t.Errorf("span %q duration = %dµs, want > 0", name, sp.DurationUS)
		}
		if sp.ID <= 0 {
			t.Errorf("span %q has no ID", name)
		}
	}

	// 4. A failed statement carries the same correlation: the error body
	// trace ID surfaces through the client error accessor.
	const badID = "e2e0-dead-0002"
	_, qerr := c.Query(context.Background(), "SELECT FROM FROM", client.WithTraceID(badID))
	if qerr == nil {
		t.Fatal("bad statement should fail")
	}
	if got := client.TraceID(qerr); got != badID {
		t.Fatalf("TraceID(err) = %q, want %q", got, badID)
	}
}

func spanNames(children []obs.SpanDump) []string {
	out := make([]string, len(children))
	for i, c := range children {
		out[i] = c.Name
	}
	return out
}

// TestServerMintsTraceID: without a client-supplied header the server
// mints an ID and still echoes it on response header and body.
func TestServerMintsTraceID(t *testing.T) {
	_, c := startServer(t, testEngine(t, 0), Config{})
	res, err := c.Query(context.Background(), testQuery())
	if err != nil {
		t.Fatal(err)
	}
	// The client minted one (client-side) — the server echoes it.
	if res.TraceID == "" {
		t.Fatal("response carries no trace ID")
	}

	// Raw HTTP with no header at all: the server mints.
	s2, _ := startServer(t, testEngine(t, 0), Config{})
	body := []byte(`{"query": "SHOW TABLES"}`)
	resp, err := http.Post("http://"+s2.Addr()+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	hdr := resp.Header.Get(api.TraceIDHeader)
	if hdr == "" {
		t.Fatal("server did not mint a trace ID header")
	}
	var qr struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID != hdr {
		t.Fatalf("body trace_id %q != header %q", qr.TraceID, hdr)
	}
}

// vecLitRow formats one VALUES tuple for the seed INSERT.
func vecLitRow(i int, v []float32) string {
	return fmt.Sprintf("(%d, 'l%d', %s)", i, i%4, vecLit(v))
}
