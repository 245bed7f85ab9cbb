package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"blendhouse/internal/core"
	"blendhouse/internal/storage"
	"blendhouse/internal/testutil"
	"blendhouse/pkg/api"
	"blendhouse/pkg/client"
)

const tDim = 8

func vecLit(v []float32) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = fmt.Sprintf("%g", f)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// testEngine builds an engine with one seeded vector table. opLatency
// > 0 simulates remote-store round trips, making queries slow enough
// to observe admission queueing and drains.
func testEngine(t testing.TB, opLatency time.Duration) *core.Engine {
	t.Helper()
	var store storage.BlobStore = storage.NewMemStore()
	if opLatency > 0 {
		store = storage.NewRemoteStore(storage.NewMemStore(), storage.RemoteConfig{OpLatency: opLatency})
	}
	e, err := core.New(core.Config{Store: store, SegmentRows: 25})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	mustExec(t, e, fmt.Sprintf(`CREATE TABLE items (
		id UInt64,
		label String,
		embedding Array(Float32),
		INDEX ann_idx embedding TYPE FLAT('DIM=%d')
	) ORDER BY id`, tDim))
	var b []byte
	b = append(b, "INSERT INTO items VALUES "...)
	for i := 0; i < 200; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		vp := make([]float32, tDim)
		for d := range vp {
			vp[d] = float32((i*7+d)%13) / 13
		}
		b = append(b, fmt.Sprintf("(%d, 'l%d', %s)", i, i%4, vecLit(vp))...)
	}
	mustExec(t, e, string(b))
	flush(t, e, "items")
	return e
}

func mustExec(t testing.TB, e *core.Engine, stmt string) {
	t.Helper()
	if _, err := e.Exec(context.Background(), stmt); err != nil {
		t.Fatalf("exec %q: %v", firstWords(stmt), err)
	}
}

// flush cuts table's logged rows into segments.
func flush(t testing.TB, e *core.Engine, table string) {
	t.Helper()
	if err := e.Table(table).FlushWAL(); err != nil {
		t.Fatal(err)
	}
}

func firstWords(s string) string {
	f := strings.Fields(s)
	if len(f) > 4 {
		f = f[:4]
	}
	return strings.Join(f, " ")
}

func testQuery() string {
	q := make([]float32, tDim)
	for d := range q {
		q[d] = 0.5
	}
	return fmt.Sprintf(`SELECT id, label, dist FROM items WHERE label = 'l1' ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10`, vecLit(q))
}

// startServer boots a real listening server (so per-connection
// sessions work) plus a client against it.
func startServer(t testing.TB, e *core.Engine, cfg Config) (*Server, *client.Client) {
	t.Helper()
	cfg.Engine = e
	cfg.Addr = "127.0.0.1:0"
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Drain() })
	c, err := client.New(client.Config{BaseURL: "http://" + s.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return s, c
}

func TestQueryRoundTrip(t *testing.T) {
	_, c := startServer(t, testEngine(t, 0), Config{})
	res, err := c.Query(context.Background(), testQuery())
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"id", "label", "dist"}; strings.Join(res.Columns, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", res.Columns, want)
	}
	if len(res.Rows) != 10 || res.RowCount != 10 {
		t.Fatalf("got %d rows (row_count %d), want 10", len(res.Rows), res.RowCount)
	}
	for _, row := range res.Rows {
		if lbl, ok := row[1].(string); !ok || lbl != "l1" {
			t.Fatalf("predicate leaked: row %v", row)
		}
	}
}

func TestExecAndDDLOverWire(t *testing.T) {
	_, c := startServer(t, testEngine(t, 0), Config{})
	ctx := context.Background()
	if _, err := c.Exec(ctx, `CREATE TABLE t2 (id UInt64, v Array(Float32), INDEX i v TYPE FLAT('DIM=4'))`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, `INSERT INTO t2 VALUES (1, [0.1,0.2,0.3,0.4]), (2, [0.4,0.3,0.2,0.1])`); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(ctx, `SELECT id, dist FROM t2 ORDER BY L2Distance(v, [0.1,0.2,0.3,0.4]) AS dist LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	if id, _ := res.Rows[0][0].(json.Number); id.String() != "1" {
		t.Fatalf("nearest id = %v, want 1", res.Rows[0][0])
	}
}

// TestErrorMappingOverWire checks each failure class surfaces with the
// right HTTP status and client sentinel.
func TestErrorMappingOverWire(t *testing.T) {
	_, c := startServer(t, testEngine(t, 0), Config{})
	ctx := context.Background()

	_, err := c.Query(ctx, "SELECT id FROM no_such_table LIMIT 1")
	assertAPIErr(t, err, http.StatusNotFound, api.ErrUnknownTable)

	_, err = c.Query(ctx, "SELEC nonsense")
	assertAPIErr(t, err, http.StatusBadRequest, api.ErrPlan)

	// Execution-time validation (unknown predicate column) folds into
	// the plan class → 400, not 500.
	_, err = c.Query(ctx, `SELECT id FROM items WHERE nope = 'x' ORDER BY L2Distance(embedding, `+vecLit(make([]float32, tDim))+`) AS dist LIMIT 1`)
	assertAPIErr(t, err, http.StatusBadRequest, api.ErrPlan)
}

func assertAPIErr(t testing.TB, err error, wantStatus int, wantSentinel error) {
	t.Helper()
	if err == nil {
		t.Fatal("want error, got nil")
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *client.APIError, got %T: %v", err, err)
	}
	if apiErr.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d (%v)", apiErr.StatusCode, wantStatus, err)
	}
	if !errors.Is(err, wantSentinel) {
		t.Fatalf("errors.Is(%v, %v) = false", err, wantSentinel)
	}
}

// TestSessionSetOverConnection checks SET variables persist across
// statements on one connection: a session statement_timeout fails a
// later slow query with TIMEOUT, with no per-request timeout set.
func TestSessionSetOverConnection(t *testing.T) {
	// 5ms per blob op → the query takes many round trips, far beyond
	// the 30ms session timeout.
	s, _ := startServer(t, testEngine(t, 5*time.Millisecond), Config{})
	// Single connection so every statement shares one server session.
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	c, err := client.New(client.Config{BaseURL: "http://" + s.Addr(), HTTPClient: hc})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.Set(ctx, "statement_timeout", "30"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(ctx, testQuery())
	if !errors.Is(err, api.ErrTimeout) {
		t.Fatalf("want ErrTimeout from session statement_timeout, got %v", err)
	}

	// Unknown variables are rejected without touching the engine.
	err = c.Set(ctx, "bogus_var", "1")
	assertAPIErr(t, err, http.StatusBadRequest, api.ErrPlan)

	// Disabling the timeout on the same connection unblocks it.
	if err := c.Set(ctx, "statement_timeout", "0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, testQuery()); err != nil {
		t.Fatalf("query after disabling timeout: %v", err)
	}
}

func TestQueryStreamNDJSON(t *testing.T) {
	_, c := startServer(t, testEngine(t, 0), Config{})
	st, err := c.QueryStream(context.Background(), testQuery())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if want := []string{"id", "label", "dist"}; strings.Join(st.Columns(), ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", st.Columns(), want)
	}
	var rows [][]any
	for {
		row, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 10 || st.RowCount() != 10 {
		t.Fatalf("streamed %d rows (trailer %d), want 10", len(rows), st.RowCount())
	}

	// The streamed rows must match the materialized JSON result.
	res, err := c.Query(context.Background(), testQuery())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rows)
	want, _ := json.Marshal(res.Rows)
	if string(got) != string(want) {
		t.Fatalf("stream rows != materialized rows:\n%s\n%s", got, want)
	}
}

func TestHealthzAndDrainRejection(t *testing.T) {
	s, _ := startServer(t, testEngine(t, 0), Config{})
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// The listener is closed: new connections are refused outright, so
	// the client sees a dial failure (retried, then surfaced), not a
	// hung request.
	cc, err := client.New(client.Config{BaseURL: "http://" + s.Addr(), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Query(context.Background(), testQuery()); err == nil {
		t.Fatal("query after drain succeeded, want error")
	}
}

// TestDrainFinishesInFlight starts a slow query, drains mid-flight,
// and checks the query still completes while the server refuses new
// work — then verifies nothing leaked.
func TestDrainFinishesInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	e := testEngine(t, 3*time.Millisecond)
	s, c := startServer(t, e, Config{DrainTimeout: 10 * time.Second})

	type out struct {
		res *client.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := c.Query(context.Background(), testQuery())
		done <- out{res, err}
	}()
	// Let the query get admitted before draining.
	waitFor(t, time.Second, func() bool { return s.Admission().InFlight() > 0 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain() }()

	// While draining, the in-flight query finishes fine.
	o := <-done
	if o.err != nil {
		t.Fatalf("in-flight query failed during drain: %v", o.err)
	}
	if len(o.res.Rows) != 10 {
		t.Fatalf("in-flight query returned %d rows, want 10", len(o.res.Rows))
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	c.Close()
	e.Close()
	testutil.CheckNoLeaks(t, before)
}

func waitFor(t testing.TB, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBadRequests covers the pre-engine rejections: the bytes of each
// answer, written by the one error writer, with no Retry-After.
func TestBadRequests(t *testing.T) {
	s, _ := startServer(t, testEngine(t, 0), Config{})
	url := "http://" + s.Addr() + "/v1/query"
	const tail = `,"retryable":false,"trace_id":"a1"}}` + "\n"
	for _, c := range []struct {
		method, body string
		status       int
		want         string
	}{
		{http.MethodGet, "", http.StatusMethodNotAllowed,
			`{"error":{"code":"BAD_REQUEST","message":"use POST with a JSON body"` + tail},
		{http.MethodPost, "{not json", http.StatusBadRequest,
			`{"error":{"code":"BAD_REQUEST","message":"bad request body: invalid character 'n' looking for beginning of object key string"` + tail},
		{http.MethodPost, `{"query": ""}`, http.StatusBadRequest,
			`{"error":{"code":"BAD_REQUEST","message":"\"query\" must be a non-empty SQL statement"` + tail},
		{http.MethodPost, `{"v": 99, "query": "SHOW TABLES"}`, http.StatusBadRequest,
			`{"error":{"code":"BAD_REQUEST","message":"wire version 99 not supported (this server speaks ≤ 1)"` + tail},
		{http.MethodPost, `{"query": "SET batch = maybe"}`, http.StatusBadRequest,
			`{"error":{"code":"SESSION","message":"session: batch wants on or off, got \"maybe\""` + tail},
	} {
		req, err := http.NewRequest(c.method, url, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.TraceIDHeader, "a1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status || string(body) != c.want || resp.Header.Get("Retry-After") != "" {
			t.Fatalf("%s %q → %d (Retry-After %q) %s\nwant %d %s", c.method, c.body,
				resp.StatusCode, resp.Header.Get("Retry-After"), body, c.status, c.want)
		}
	}
}

// TestDimMismatchMapsToPlanError: a query vector of the wrong length
// is a statement fault — the wire answer must be 400 PLAN (not a 500
// from a kernel panic), via the planner's dimension validation.
func TestDimMismatchMapsToPlanError(t *testing.T) {
	s, _ := startServer(t, testEngine(t, 0), Config{})
	base := "http://" + s.Addr()

	body := `{"query": "SELECT id FROM items ORDER BY L2Distance(embedding, [1.0, 2.0]) LIMIT 3"}`
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb api.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error.Code != api.CodePlan {
		t.Fatalf("dim mismatch → %d %q, want 400 PLAN (%s)", resp.StatusCode, eb.Error.Code, eb.Error.Message)
	}
	if !strings.Contains(eb.Error.Message, "dim") {
		t.Fatalf("error message should name the dimension mismatch: %q", eb.Error.Message)
	}
}
