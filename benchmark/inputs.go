package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"blendhouse/internal/bench/dataset"
)

const (
	tableName = "bench"
	topK      = 10
	// distinctQueries is how many different statements a workload cycles
	// through: enough that no result is served from a per-statement
	// memo, few enough that every one of them repeats inside a window.
	distinctQueries = 1000
	// oracleSample bounds how many distinct ANN statements get a full
	// brute-force ground truth (their every response is then scored);
	// exact-path statements are all scored.
	oracleSample = 256
)

// spec is one workload: its shape and which stack it runs on.
type spec struct {
	name     string
	dim      int
	rows     int // rows loaded by set-up
	segments int // set-up cuts the rows into this many segments
	callers  int // closed-loop query callers
	serve    bool
	cold     bool // remote store under a half-sized tier; local indexes dropped before each query
	ingest   bool // paced writer beside the reader
	intCol   string
	payload  bool
	// selectivity classes of the int predicate, as upper bounds on a
	// uniform [0, 1e6) column; empty = no predicate.
	classes []int64
}

var specs = []*spec{
	{
		name: "topk_warm_inproc",
		dim:  128, rows: 12000, segments: 4, callers: 1, intCol: "attr",
	},
	{
		name: "hybrid_mix_serve",
		dim:  128, rows: 12000, segments: 4, callers: 2, serve: true, intCol: "attr",
		classes: []int64{10000, 500000, 990000},
	},
	{
		name: "cold_remote_tiered",
		dim:  128, rows: 12000, segments: 16, callers: 1, cold: true, intCol: "ts", payload: true,
	},
	{
		name: "ingest_query_serve",
		dim:  64, rows: 8000, segments: 1, callers: 1, serve: true, ingest: true, intCol: "attr",
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// Paced writer shape (ingest_query_serve).
const (
	writerPeriodMS  = 40 // one op every 40 ms
	writerBatchRows = 32 // → 800 rows/s
	deleteEvery     = 25 // every 25th op deletes instead of inserting
	deleteKeys      = 8
	probeEvery      = 50 // freshness probe after every 50th op
)

type query struct {
	sql    string
	qv     int // row of ds.Queries
	class  int
	pred   bool
	lo, hi int64 // inclusive bounds on the int column
	// d10 is the squared distance of the oracle's k-th neighbour among
	// the rows set-up loaded (-1 = this statement has no ground truth);
	// want is how many rows the oracle returns (k, or fewer when the
	// predicate leaves fewer).
	d10   float64
	want  int
	exact bool // the planner runs this class brute-force: the answer must be the oracle's
}

type writerOp struct {
	sql     string
	del     []int64 // ids deleted by this op (nil = insert)
	firstID int64   // insert: first id of the batch
	probe   string  // freshness probe statement issued after the ack ("" = none)
}

// inputs is everything generated from the seed before any timing
// starts: the rows, the statements that load them, the query cycle
// and (ingest) the writer's schedule.
type inputs struct {
	sp        *spec
	ds        *dataset.Dataset
	ints      []int64 // the int column, by row id
	ddl       string
	loads     [][]string // per set-up segment, its INSERT statements
	userBytes int64      // raw bytes of the rows set-up loads
	queries   []query
	ops       []writerOp
}

func payloadOf(id int) string { return fmt.Sprintf("payload-%08d-%s", id, strings.Repeat("x", 40)) }

func appendVec(b []byte, v []float32) []byte {
	b = append(b, '[')
	for i, f := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(f), 'g', -1, 32)
	}
	return append(b, ']')
}

func (in *inputs) insertSQL(from, to int) string {
	b := make([]byte, 0, (to-from)*(in.sp.dim*12+64))
	b = append(b, "INSERT INTO "+tableName+" VALUES "...)
	for i := from; i < to; i++ {
		if i > from {
			b = append(b, ',')
		}
		b = append(b, '(')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, in.ints[i], 10)
		b = append(b, ',')
		if in.sp.payload {
			b = append(b, '\'')
			b = append(b, payloadOf(i)...)
			b = append(b, '\'', ',')
		}
		b = appendVec(b, in.ds.Vectors.Row(i))
		b = append(b, ')')
	}
	return string(b)
}

// makeInputs generates the workload's inputs from the seed. writerOps
// is how many paced writer operations to prepare (ingest only).
func makeInputs(sp *spec, seed int64, writerOps int) *inputs {
	total := sp.rows
	if sp.ingest {
		total += writerOps * writerBatchRows
	}
	in := &inputs{sp: sp}
	in.ds = dataset.Generate(dataset.Spec{
		Name: sp.name, N: total, Dim: sp.dim, Queries: distinctQueries, Seed: seed, WithInts: true,
	})
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	in.ints = in.ds.Ints
	if sp.cold {
		// ascending timestamps: segment s holds one contiguous ts range
		in.ints = make([]int64, total)
		for i := range in.ints {
			in.ints[i] = 1_700_000_000_000 + int64(i)*1000
		}
	}

	cols := fmt.Sprintf("id UInt64, %s Int64, ", sp.intCol)
	if sp.payload {
		cols += "payload String, "
	}
	in.ddl = fmt.Sprintf("CREATE TABLE %s (%sv Array(Float32), INDEX ann v TYPE HNSW('DIM=%d')) ORDER BY id",
		tableName, cols, sp.dim)

	const insertBatch = 500
	segRows := sp.rows / sp.segments
	for s := 0; s < sp.segments; s++ {
		var stmts []string
		for from := s * segRows; from < (s+1)*segRows; from += insertBatch {
			to := from + insertBatch
			if to > (s+1)*segRows {
				to = (s + 1) * segRows
			}
			stmts = append(stmts, in.insertSQL(from, to))
		}
		in.loads = append(in.loads, stmts)
	}
	rowBytes := int64(8 + 8 + 4*sp.dim)
	if sp.payload {
		rowBytes += int64(len(payloadOf(0)))
	}
	in.userBytes = rowBytes * int64(sp.rows)

	// Query cycle. Cold windows cover two adjacent segments, the pair
	// drawn Zipf(1.0) over recency (rank 0 = the two newest segments).
	var zipfCDF []float64
	if sp.cold {
		sum := 0.0
		for r := 0; r < sp.segments-1; r++ {
			sum += 1 / float64(r+1)
			zipfCDF = append(zipfCDF, sum)
		}
		for i := range zipfCDF {
			zipfCDF[i] /= sum
		}
	}
	proj := "id"
	switch {
	case len(sp.classes) > 0:
		proj = "id, " + sp.intCol
	case sp.payload:
		proj = "id, payload"
	}
	in.queries = make([]query, distinctQueries)
	for i := range in.queries {
		q := &in.queries[i]
		q.qv, q.d10 = i, -1
		where := ""
		switch {
		case len(sp.classes) > 0:
			q.class = i % len(sp.classes)
			q.pred, q.lo, q.hi = true, math.MinInt64, sp.classes[q.class]-1
			where = fmt.Sprintf(" WHERE %s < %d", sp.intCol, sp.classes[q.class])
		case sp.cold:
			rank := sort.SearchFloat64s(zipfCDF, rng.Float64())
			first := sp.segments - 2 - rank // older segment of the pair
			q.pred = true
			q.lo, q.hi = in.ints[first*segRows], in.ints[(first+2)*segRows-1]
			where = fmt.Sprintf(" WHERE %s BETWEEN %d AND %d", sp.intCol, q.lo, q.hi)
		}
		b := []byte("SELECT " + proj + ", d FROM " + tableName + where + " ORDER BY L2Distance(v, ")
		b = appendVec(b, in.ds.Queries.Row(q.qv))
		b = append(b, fmt.Sprintf(") AS d LIMIT %d", topK)...)
		q.sql = string(b)
	}

	if sp.ingest {
		deleted := map[int64]bool{}
		next := sp.rows
		for j := 0; j < writerOps; j++ {
			var op writerOp
			if j%deleteEvery == deleteEvery-1 {
				// delete ids acked long ago (older than the last 50 ops), never twice
				var keys []string
				for len(op.del) < deleteKeys {
					id := int64(rng.Intn(next - 50*writerBatchRows))
					if !deleted[id] {
						deleted[id] = true
						op.del = append(op.del, id)
						keys = append(keys, strconv.FormatInt(id, 10))
					}
				}
				op.sql = fmt.Sprintf("DELETE FROM %s WHERE id IN (%s)", tableName, strings.Join(keys, ","))
			} else {
				op.firstID = int64(next)
				op.sql = in.insertSQL(next, next+writerBatchRows)
				next += writerBatchRows
				if j%probeEvery == 0 {
					last := next - 1
					b := []byte("SELECT id, d FROM " + tableName + " ORDER BY L2Distance(v, ")
					b = appendVec(b, in.ds.Vectors.Row(last))
					op.probe = string(append(b, ") AS d LIMIT 1"...))
				}
			}
			in.ops = append(in.ops, op)
		}
	}
	return in
}

// l2sq is the oracle's distance: a plain float64 loop, deliberately
// sharing nothing with internal/vec.
func l2sq(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// kthNearest returns the squared distance of the k-th nearest row to
// q among rows [0, n) that pass keep, and how many rows (≤ k) the
// exact answer has.
func (in *inputs) kthNearest(q []float32, n int, k int, keep func(id int) bool) (float64, int) {
	best := make([]float64, 0, k+1)
	for id := 0; id < n; id++ {
		if keep != nil && !keep(id) {
			continue
		}
		d := l2sq(q, in.ds.Vectors.Row(id))
		if len(best) == k && d >= best[k-1] {
			continue
		}
		pos := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[pos+1:], best[pos:])
		best[pos] = d
		if len(best) > k {
			best = best[:k]
		}
	}
	if len(best) == 0 {
		return 0, 0
	}
	return best[len(best)-1], len(best)
}

// groundTruth fills d10/want for every statement of an exact class and
// for an evenly strided sample of the others, over the rows set-up
// loaded. It is the benchmark's own work and is never timed.
func (in *inputs) groundTruth(exactClass map[int]bool) {
	var pick []int
	stride := len(in.queries) / oracleSample
	if stride < 1 {
		stride = 1
	}
	for i := range in.queries {
		if exactClass[in.queries[i].class] || i%stride == 0 {
			pick = append(pick, i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(pick); j += 2 {
				q := &in.queries[pick[j]]
				var keep func(int) bool
				if q.pred {
					keep = func(id int) bool { return in.ints[id] >= q.lo && in.ints[id] <= q.hi }
				}
				q.exact = exactClass[q.class]
				q.d10, q.want = in.kthNearest(in.ds.Queries.Row(q.qv), in.sp.rows, topK, keep)
			}
		}(w)
	}
	wg.Wait()
}

func asInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case json.Number:
		n, err := x.Int64()
		return n, err == nil
	}
	return 0, false
}

func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

// checkRows verifies one response against what the benchmark itself
// knows of the table. rows [0, maxID) may be visible; gone(id) reports
// a row whose delete was acknowledged before the query was sent. It
// returns the number of violated rows (any > 0 fails the operation)
// and, when the statement has ground truth, how many returned rows are
// at least as near as the oracle's k-th neighbour.
func (in *inputs) checkRows(q *query, qvec []float32, rows [][]any, maxID int64, gone func(id int64) bool) (bad, hits int) {
	prev := -1.0
	seen := [topK]int64{}
	if len(rows) > topK {
		return len(rows), 0
	}
	for i, row := range rows {
		id, ok := asInt(row[0])
		d, okd := asFloat(row[len(row)-1])
		if !ok || !okd || id < 0 || id >= maxID || len(row) < 2 {
			bad++
			continue
		}
		for _, s := range seen[:i] {
			if s == id {
				bad++ // the same row twice
			}
		}
		seen[i] = id
		if gone != nil && gone(id) {
			bad++
			continue
		}
		if q.pred && (in.ints[id] < q.lo || in.ints[id] > q.hi) {
			bad++
			continue
		}
		if len(row) == 3 { // the projected scalar must be the row's own
			switch {
			case in.sp.payload:
				if s, _ := row[1].(string); s != payloadOf(int(id)) {
					bad++
				}
			default:
				if a, ok := asInt(row[1]); !ok || a != in.ints[id] {
					bad++
				}
			}
		}
		d2 := l2sq(qvec, in.ds.Vectors.Row(int(id)))
		if want := math.Sqrt(d2); math.Abs(d-want) > 1e-3*(want+1e-9) || d < prev {
			bad++ // wrong distance, or not in ascending order
		}
		prev = d
		if q.d10 >= 0 && d2 <= q.d10*(1+1e-6) {
			hits++
		}
	}
	return bad, hits
}
