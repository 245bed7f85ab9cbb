package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blendhouse/internal/core"
	"blendhouse/internal/obs"
	"blendhouse/internal/retry"
	"blendhouse/internal/server"
	"blendhouse/internal/storage"
	"blendhouse/pkg/api"
	"blendhouse/pkg/client"
)

const tDim = 8

// row is one deterministic test row.
type row struct {
	id    int64
	label string
	vec   []float32
}

// genRows builds n rows with pseudo-random embeddings (fixed seed):
// random vectors make all pairwise distances distinct almost surely,
// so merge order is decided by distance alone — the regime the
// byte-identity property is about.
func genRows(n int) []row {
	rng := rand.New(rand.NewSource(42))
	out := make([]row, n)
	for i := range out {
		v := make([]float32, tDim)
		for d := range v {
			v[d] = rng.Float32()
		}
		out[i] = row{id: int64(i), label: fmt.Sprintf("l%d", i%4), vec: v}
	}
	return out
}

func vecLit(v []float32) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = strconv.FormatFloat(float64(f), 'g', -1, 32)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func createStmt() string {
	return fmt.Sprintf(`CREATE TABLE items (
		id UInt64,
		label String,
		embedding Array(Float32),
		INDEX ann_idx embedding TYPE FLAT('DIM=%d')
	) ORDER BY id`, tDim)
}

func insertStmt(rows []row) string {
	var b strings.Builder
	b.WriteString("INSERT INTO items VALUES ")
	for i, r := range rows {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, '%s', %s)", r.id, r.label, vecLit(r.vec))
	}
	return b.String()
}

func annQuery(k int) string {
	q := make([]float32, tDim)
	for d := range q {
		q[d] = 0.5
	}
	return fmt.Sprintf("SELECT id, label FROM items ORDER BY L2Distance(embedding, %s) LIMIT %d", vecLit(q), k)
}

// cluster is n shard servers plus a coordinator server, all in-process
// on loopback listeners.
type cluster struct {
	engines   []*core.Engine
	shardSrvs []*server.Server
	co        *Coordinator
	srv       *server.Server
	cli       *client.Client
}

func startCluster(t testing.TB, shards, replicas int) *cluster {
	t.Helper()
	cl := &cluster{}
	var addrs []string
	for i := 0; i < shards; i++ {
		e, err := core.New(core.Config{Store: storage.NewMemStore(), SegmentRows: 25, TraceSample: 1})
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(server.Config{Engine: e, Addr: "127.0.0.1:0", DrainTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Drain() })
		cl.engines = append(cl.engines, e)
		cl.shardSrvs = append(cl.shardSrvs, s)
		addrs = append(addrs, "http://"+s.Addr())
	}
	co, err := New(Config{
		Shards:          addrs,
		Replicas:        replicas,
		MaxRetries:      1,
		RetryBase:       2 * time.Millisecond,
		BreakerCooldown: 150 * time.Millisecond,
		TraceSample:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	srv, err := server.New(server.Config{Backend: co, Addr: "127.0.0.1:0", DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Drain() })
	cli, err := client.New(client.Config{BaseURL: "http://" + srv.Addr(), MaxRetries: 1, RetryBase: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	cl.co, cl.srv, cl.cli = co, srv, cli
	return cl
}

func (cl *cluster) mustExec(t testing.TB, stmt string) *client.Result {
	t.Helper()
	res, err := cl.cli.Exec(context.Background(), stmt)
	if err != nil {
		t.Fatalf("exec %.40q: %v", stmt, err)
	}
	return res
}

// startSingle boots one engine+server seeded with the same statements,
// the byte-identity reference.
func startSingle(t testing.TB, stmts ...string) *client.Client {
	t.Helper()
	e, err := core.New(core.Config{Store: storage.NewMemStore(), SegmentRows: 25})
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range stmts {
		if _, err := e.Exec(context.Background(), stmt); err != nil {
			t.Fatalf("single-node exec %.40q: %v", stmt, err)
		}
	}
	s, err := server.New(server.Config{Engine: e, Addr: "127.0.0.1:0", DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Drain() })
	cli, err := client.New(client.Config{BaseURL: "http://" + s.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return cli
}

func marshalResult(t testing.TB, res *client.Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}{res.Columns, res.Rows})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTopKByteIdenticalToSingleNode is the PR's property test: for
// shard counts {1,2,3,5} and k in {1,10,100}, a vector top-k through
// the coordinator is byte-identical (canonical JSON of columns+rows)
// to a single-node engine over the union of the same rows. FLAT (exact
// search) makes the candidate sets equal; the property under test is
// the coordinator's merge discipline.
func TestTopKByteIdenticalToSingleNode(t *testing.T) {
	rows := genRows(150)
	create, insert := createStmt(), insertStmt(rows)
	ctx := context.Background()
	for _, shards := range []int{1, 2, 3, 5} {
		cl := startCluster(t, shards, 1)
		cl.mustExec(t, create)
		cl.mustExec(t, insert)
		single := startSingle(t, create, insert)
		queries := []string{}
		for _, k := range []int{1, 10, 100} {
			queries = append(queries, annQuery(k))
		}
		// Beyond the required matrix: alias + star projections and a
		// scalar ORDER BY, same byte-identity contract.
		q := make([]float32, tDim)
		for d := range q {
			q[d] = 0.5
		}
		queries = append(queries,
			fmt.Sprintf("SELECT id, label, dist FROM items ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10", vecLit(q)),
			fmt.Sprintf("SELECT * FROM items ORDER BY L2Distance(embedding, %s) AS dist LIMIT 10", vecLit(q)),
			fmt.Sprintf("SELECT * FROM items ORDER BY L2Distance(embedding, %s) LIMIT 10", vecLit(q)),
			fmt.Sprintf("SELECT id, label FROM items WHERE label = 'l1' ORDER BY L2Distance(embedding, %s) LIMIT 10", vecLit(q)),
			"SELECT id, label FROM items WHERE label = 'l2' ORDER BY id LIMIT 20",
			"SELECT label FROM items ORDER BY id DESC LIMIT 15",
		)
		for _, query := range queries {
			want, err := single.Query(ctx, query)
			if err != nil {
				t.Fatalf("shards=%d single-node %q: %v", shards, query, err)
			}
			got, err := cl.cli.Query(ctx, query)
			if err != nil {
				t.Fatalf("shards=%d coordinator %q: %v", shards, query, err)
			}
			wb, gb := marshalResult(t, want), marshalResult(t, got)
			if !bytes.Equal(wb, gb) {
				t.Fatalf("shards=%d %q differs:\n want %s\n got  %s", shards, query, wb, gb)
			}
			if got.Partial {
				t.Fatalf("shards=%d %q: unexpected partial result", shards, query)
			}
		}
	}
}

// TestInsertPlacementAndDelete checks DML routing: rows land on ring
// owners (every shard gets some of a large batch, none gets all),
// reads see the union, and DELETE finds the rows INSERT placed.
func TestInsertPlacementAndDelete(t *testing.T) {
	rows := genRows(90)
	cl := startCluster(t, 3, 1)
	cl.mustExec(t, createStmt())
	cl.mustExec(t, insertStmt(rows))
	ctx := context.Background()

	total := 0
	for i, e := range cl.engines {
		tab := e.Table("items")
		if tab == nil {
			t.Fatalf("shard %d missing table (DDL broadcast failed)", i)
		}
		n := tab.Rows() + tab.MemRows()
		if n == 0 {
			t.Fatalf("shard %d received no rows — placement is not spreading", i)
		}
		if n == len(rows) {
			t.Fatalf("shard %d received every row — placement is not splitting", i)
		}
		total += n
	}
	if total != len(rows) {
		t.Fatalf("shards hold %d rows total, want %d (replicas=1)", total, len(rows))
	}

	res, err := cl.cli.Query(ctx, "SELECT id FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(rows) {
		t.Fatalf("SELECT sees %d rows, want %d", len(res.Rows), len(rows))
	}

	cl.mustExec(t, "DELETE FROM items WHERE id IN (3, 17, 41, 88)")
	res, err = cl.cli.Query(ctx, "SELECT id FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(rows)-4 {
		t.Fatalf("after DELETE: %d rows, want %d", len(res.Rows), len(rows)-4)
	}
	for _, r := range res.Rows {
		id, _ := r[0].(json.Number)
		switch id.String() {
		case "3", "17", "41", "88":
			t.Fatalf("deleted key %s still visible", id)
		}
	}
}

// TestReplicatedPlacementDedup checks replicas=2 placement: every row
// is stored twice across the cluster, and the merge folds the copies
// back to one (identical wire text) so reads look single-copy.
func TestReplicatedPlacementDedup(t *testing.T) {
	rows := genRows(60)
	cl := startCluster(t, 3, 2)
	cl.mustExec(t, createStmt())
	cl.mustExec(t, insertStmt(rows))

	total := 0
	for _, e := range cl.engines {
		tab := e.Table("items")
		total += tab.Rows() + tab.MemRows()
	}
	if total != 2*len(rows) {
		t.Fatalf("shards hold %d rows total, want %d (replicas=2)", total, 2*len(rows))
	}
	res, err := cl.cli.Query(context.Background(), "SELECT id, label FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(rows) {
		t.Fatalf("SELECT sees %d rows, want %d deduped", len(res.Rows), len(rows))
	}
	res, err = cl.cli.Query(context.Background(), annQuery(10))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		key, _ := json.Marshal(r)
		if seen[string(key)] {
			t.Fatalf("replica duplicate in top-k: %s", key)
		}
		seen[string(key)] = true
	}
}

// TestKillShardZeroFailedQueries is the chaos contract: with
// replicas=2 on 3 shards, killing one shard (abrupt close, the kill -9
// model) loses zero queries AND zero rows — every result stays
// complete and byte-identical to the pre-kill result, unmarked
// partial, because every key still has a live owner.
func TestKillShardZeroFailedQueries(t *testing.T) {
	rows := genRows(120)
	cl := startCluster(t, 3, 2)
	cl.mustExec(t, createStmt())
	cl.mustExec(t, insertStmt(rows))
	ctx := context.Background()

	query := annQuery(10)
	want, err := cl.cli.Query(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	wb := marshalResult(t, want)

	cl.shardSrvs[1].Kill()

	for i := 0; i < 40; i++ {
		got, err := cl.cli.Query(ctx, query)
		if err != nil {
			t.Fatalf("query %d after shard kill failed: %v", i, err)
		}
		if got.Partial {
			t.Fatalf("query %d marked partial; 1 dead shard < replicas=2 must stay complete", i)
		}
		if gb := marshalResult(t, got); !bytes.Equal(wb, gb) {
			t.Fatalf("query %d after shard kill differs:\n want %s\n got  %s", i, wb, gb)
		}
	}
}

// TestPartialResultPolicy: with replicas=1, losing a shard loses
// coverage. Default is fail-closed (502 UNAVAILABLE → client
// ErrUnavailable); SET allow_partial = on opts the session into
// partial results, which arrive marked Partial with the surviving
// shards' rows.
func TestPartialResultPolicy(t *testing.T) {
	rows := genRows(90)
	cl := startCluster(t, 3, 1)
	cl.mustExec(t, createStmt())
	cl.mustExec(t, insertStmt(rows))
	ctx := context.Background()

	full, err := cl.cli.Query(ctx, "SELECT id FROM items")
	if err != nil {
		t.Fatal(err)
	}
	cl.shardSrvs[2].Kill()

	_, err = cl.cli.Query(ctx, "SELECT id FROM items")
	if !errors.Is(err, api.ErrUnavailable) {
		t.Fatalf("want ErrUnavailable fail-closed, got %v", err)
	}

	if err := cl.cli.Set(ctx, "allow_partial", "on"); err != nil {
		t.Fatal(err)
	}
	res, err := cl.cli.Query(ctx, "SELECT id FROM items")
	if err != nil {
		t.Fatalf("allow_partial query failed: %v", err)
	}
	if !res.Partial {
		t.Fatal("result not marked Partial with a dead shard and replicas=1")
	}
	if len(res.Rows) == 0 || len(res.Rows) >= len(full.Rows) {
		t.Fatalf("partial result has %d rows, want strict non-empty subset of %d", len(res.Rows), len(full.Rows))
	}
}

// TestOneTraceSpansCluster: a caller-chosen trace ID surfaces on the
// coordinator's response AND on the trace records of the coordinator
// and every shard leg (all engines in this test share the process
// trace ring, so the fan-out is visible in one place — exactly what a
// cluster-wide trace search does with real processes).
func TestOneTraceSpansCluster(t *testing.T) {
	rows := genRows(60)
	cl := startCluster(t, 2, 1)
	cl.mustExec(t, createStmt())
	cl.mustExec(t, insertStmt(rows))
	ctx := context.Background()

	const traceID = "00c0ffee00c0ffee"
	res, err := cl.cli.Query(ctx, annQuery(5), client.WithTraceID(traceID))
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != traceID {
		t.Fatalf("response trace ID %q, want %q", res.TraceID, traceID)
	}
	records := 0
	for _, r := range obs.Traces().Snapshot() {
		if r.TraceID == traceID {
			records++
		}
	}
	// 1 coordinator record + one per shard engine (TraceSample=1
	// everywhere). The select fans out to both shards.
	if records < 3 {
		t.Fatalf("found %d trace records for %s, want >= 3 (coordinator + 2 shard legs)", records, traceID)
	}
}

// TestCoordinatorInfo checks the /v1/info identity of the coordinator
// role and the single-shard forward of catalog statements.
func TestCoordinatorInfo(t *testing.T) {
	cl := startCluster(t, 3, 2)
	cl.mustExec(t, createStmt())

	info := cl.co.Info()
	if info.Role != "coordinator" || len(info.Shards) != 3 || info.Replicas != 2 {
		t.Fatalf("Info = %+v", info)
	}
	res, err := cl.cli.Query(context.Background(), "SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("SHOW TABLES rows = %v", res.Rows)
	}
	res, err = cl.cli.Query(context.Background(), "DESCRIBE items")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("DESCRIBE items returned nothing")
	}
}

// TestBreakerSkipsDeadShard: after enough failures the dead shard's
// breaker opens and legs are skipped outright (no per-query dial
// stall); when the shard returns, the half-open probe closes the
// breaker and the shard serves again.
func TestBreakerSkipsDeadShard(t *testing.T) {
	rows := genRows(60)
	cl := startCluster(t, 3, 2)
	cl.mustExec(t, createStmt())
	cl.mustExec(t, insertStmt(rows))
	ctx := context.Background()

	cl.shardSrvs[0].Kill()
	query := annQuery(5)
	for i := 0; i < 6; i++ {
		if _, err := cl.cli.Query(ctx, query); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	var dead *shard
	for _, s := range cl.co.shards {
		if s.name == "http://"+cl.shardSrvs[0].Addr() {
			dead = s
		}
	}
	if dead == nil {
		t.Fatal("dead shard not found in coordinator")
	}
	if dead.brk.State() == retry.Closed {
		t.Fatal("breaker still closed after repeated failures to a dead shard")
	}
	// With the breaker open, queries keep succeeding and stay fast.
	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := cl.cli.Query(ctx, query); err != nil {
			t.Fatalf("query with open breaker: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("5 queries with open breaker took %v — breaker is not skipping the dead shard", elapsed)
	}
}

// TestBreakerProbeDeadlineIsNeutral: a half-open probe cut off by the
// statement's own deadline proves nothing about the shard, so it must
// not close the breaker. Regression: the client reports the fired
// deadline as ErrTimeout, which the leg counted as a live shard's
// answer, closing the breaker on a hung shard.
func TestBreakerProbeDeadlineIsNeutral(t *testing.T) {
	var hang atomic.Bool // false: answer 503 DRAINING; true: hang until cancelled
	var hits atomic.Int32
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_, _ = io.Copy(io.Discard, r.Body) // the server sees a client hang-up only once the body is read
		if hang.Load() {
			<-r.Context().Done()
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(api.ErrorBody{Error: api.WireError{
			Code: api.CodeDraining, Message: "draining", Retryable: true}})
	}))
	defer shard.Close()
	const cooldown = 200 * time.Millisecond
	co, err := New(Config{Shards: []string{shard.URL}, MaxRetries: -1,
		BreakerThreshold: 2, BreakerCooldown: cooldown})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	query := func(timeout time.Duration) {
		_, _ = co.Query(context.Background(), "SELECT id FROM t", core.QueryOptions{Timeout: timeout})
	}
	query(time.Second) // two DRAINING answers trip the breaker
	query(time.Second)
	time.Sleep(cooldown + 50*time.Millisecond)
	hang.Store(true)
	query(30 * time.Millisecond) // the probe hangs until the statement's deadline
	hang.Store(false)
	before := hits.Load()
	query(time.Second) // still half-open: this leg is the one probe, and DRAINING reopens
	query(time.Second) // so this leg is skipped
	if got := hits.Load() - before; got != 1 {
		t.Fatalf("%d legs reached the shard after the timed-out probe, want 1: the probe's deadline closed the breaker", got)
	}
}

// TestUnknownTablePropagates: a live cluster rejecting a statement
// must answer with the shard's own taxonomy error, not UNAVAILABLE.
func TestUnknownTablePropagates(t *testing.T) {
	cl := startCluster(t, 2, 1)
	_, err := cl.cli.Query(context.Background(), "SELECT id FROM nope")
	if !errors.Is(err, api.ErrUnknownTable) {
		t.Fatalf("want ErrUnknownTable through the coordinator, got %v", err)
	}
	_, err = cl.cli.Query(context.Background(), "SELEKT broken")
	if !errors.Is(err, api.ErrPlan) {
		t.Fatalf("want ErrPlan for parse failure, got %v", err)
	}
}

// TestShedLegAnswersUnavailable: a shard that sheds its leg (429 SHED,
// retryable) must reach the coordinator's client as 502 UNAVAILABLE,
// not as SHED: the client would retry a SHED, and the coordinator may
// already have run the other legs. The shed keeps its text but not its
// class on the error chain. When another shard applied its INSERT leg,
// the statement is partially applied: 500 INTERNAL, never retryable.
func TestShedLegAnswersUnavailable(t *testing.T) {
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(api.ErrorBody{Error: api.WireError{
			Code: api.CodeShed, Message: "wait queue full", Retryable: true}})
	}))
	defer shed.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(api.QueryResponse{Columns: []string{"status"}, Rows: [][]any{{"OK"}}, RowCount: 1})
	}))
	defer ok.Close()
	co, err := New(Config{Shards: []string{shed.URL, ok.URL}, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv, err := server.New(server.Config{Backend: co, Addr: "127.0.0.1:0", DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Drain() }()
	cli, err := client.New(client.Config{BaseURL: "http://" + srv.Addr(), MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.Query(context.Background(), "SELECT id FROM t")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadGateway || apiErr.Code != api.CodeUnavailable || apiErr.Retryable {
		t.Fatalf("SELECT: want 502 UNAVAILABLE, not retryable, got %v", err)
	}
	if !errors.Is(err, api.ErrUnavailable) || errors.Is(err, api.ErrShed) {
		t.Fatalf("SELECT: want ErrUnavailable and not ErrShed, got %v", err)
	}
	if !strings.Contains(apiErr.Message, "wait queue full") {
		t.Fatalf("SELECT: message %q lost the shard's cause", apiErr.Message)
	}

	rows := make([]string, 20) // 20 keys land on both shards
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, 'x')", i)
	}
	_, err = cli.Exec(context.Background(), "INSERT INTO t VALUES "+strings.Join(rows, ", "))
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError || apiErr.Code != api.CodeInternal || apiErr.Retryable {
		t.Fatalf("INSERT on one shard of two: want 500 INTERNAL, not retryable, got %v", err)
	}
}
