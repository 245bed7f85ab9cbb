package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"blendhouse/internal/batch"
	"blendhouse/internal/cache"
	"blendhouse/internal/core"
	"blendhouse/internal/plan"
	"blendhouse/internal/storage"
	"blendhouse/pkg/api"
)

// testdata/golden_bodies.json holds the /v1/query response bodies of
// goldenStatements as the commit BEFORE the single-parse / inline-solo
// / granule-addressed column cache change answered them, per forced
// plan, with the two per-request fields (elapsed_ms, trace_id) blanked.
// Every later commit must answer the same bytes, with batching on and
// off: same rows, same order, same float rendering, same field order.

const (
	goldenRows = 2000
	goldenDim  = 16
)

// goldenFloats is a fixed LCG stream in [0,1), independent of any
// library generator.
func goldenFloats(n int, seed uint32) []float32 {
	out := make([]float32, n)
	x := seed
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = float32(x>>8) / float32(1<<24)
	}
	return out
}

// goldenEngine builds the fixture: 2 000 × 16-d rows in four HNSW
// segments, an int column spread over [0,1000) for the selectivity
// classes, a string column, the column cache at its shipped default.
func goldenEngine(t testing.TB, strategy plan.Strategy, batching bool) *core.Engine {
	t.Helper()
	cc := cache.DefaultColumnCacheConfig()
	cfg := core.Config{
		Store:       storage.NewMemStore(),
		SegmentRows: 500,
		ColumnCache: &cc,
		Planner:     plan.PlannerConfig{ForceStrategy: &strategy},
		Seed:        1,
		TraceSample: 1,
	}
	if batching {
		cfg.Batch = &batch.Config{Adaptive: true}
	}
	e, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	mustExec(t, e, fmt.Sprintf(`CREATE TABLE items (
		id UInt64,
		attr UInt64,
		label String,
		v Array(Float32),
		INDEX ann v TYPE HNSW('DIM=%d','M=8','SEED=1')
	) ORDER BY id`, goldenDim))
	vecs := goldenFloats(goldenRows*goldenDim, 1)
	var b strings.Builder
	b.WriteString("INSERT INTO items VALUES ")
	for i := 0; i < goldenRows; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "(%d, %d, 'l%d', %s)", i, (i*7919)%1000, i%5, vecLit(vecs[i*goldenDim:(i+1)*goldenDim]))
	}
	mustExec(t, e, b.String())
	flush(t, e, "items")
	return e
}

// goldenStatements is one statement per selectivity class of the
// benchmark's hybrid mix (1 %, 50 %, 99 %) plus a pure top-k.
func goldenStatements() map[string]string {
	qs := goldenFloats(4*goldenDim, 2)
	q := func(i int) string { return vecLit(qs[i*goldenDim : (i+1)*goldenDim]) }
	hybrid := `SELECT id, attr, label, d FROM items WHERE attr < %d ORDER BY L2Distance(v, %s) AS d LIMIT 10`
	return map[string]string{
		"sel1":  fmt.Sprintf(hybrid, 10, q(0)),
		"sel50": fmt.Sprintf(hybrid, 500, q(1)),
		"sel99": fmt.Sprintf(hybrid, 990, q(2)),
		"topk":  fmt.Sprintf(`SELECT id, d FROM items ORDER BY L2Distance(v, %s) AS d LIMIT 10`, q(3)),
	}
}

var perRequestFields = regexp.MustCompile(`"elapsed_ms":[^,}]+|"trace_id":"[^"]*"`)

// postQuery posts one /v1/query request body to the handler and
// returns the response body, failing on any status but 200.
func postQuery(t testing.TB, h http.Handler, body string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// goldenBody answers one statement and blanks the two fields that
// differ per request.
func goldenBody(t testing.TB, h http.Handler, stmt string) string {
	t.Helper()
	body, _ := json.Marshal(api.QueryRequest{Query: stmt})
	return perRequestFields.ReplaceAllStringFunc(postQuery(t, h, string(body)), func(m string) string {
		return m[:strings.IndexByte(m, ':')+1] + "0"
	})
}

func TestGoldenResponseBodies(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("graph construction hangs on float comparisons; the golden bodies were written on amd64")
	}
	raw, err := os.ReadFile("testdata/golden_bodies.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]string // strategy -> statement -> body
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	stmts := goldenStatements()
	for _, strategy := range []plan.Strategy{plan.BruteForce, plan.PreFilter, plan.PostFilter} {
		for _, batching := range []bool{false, true} {
			s, err := New(Config{Engine: goldenEngine(t, strategy, batching)})
			if err != nil {
				t.Fatal(err)
			}
			for name, stmt := range stmts {
				want, ok := golden[strategy.String()][name]
				if !ok {
					t.Fatalf("no golden body for %s/%s", strategy, name)
				}
				// Twice: the first answer fills the column cache and opens
				// the indexes, the second is the warm path.
				for pass := 0; pass < 2; pass++ {
					if got := goldenBody(t, s.Handler(), stmt); got != want {
						t.Errorf("%s/%s batching=%t pass %d:\n got %s\nwant %s", strategy, name, batching, pass, got, want)
					}
				}
			}
		}
	}
}
