package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"blendhouse/internal/plan"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// One copy at rest (DESIGN.md decision 22): an index type that saves
// its rows verbatim is the vector column's only copy, the others keep
// col_<v>.bin. Either way every read path — memtable, flushed segment,
// reopened table, compacted segment, restored backup, plan A's granule
// reads — must hand back the floats that were inserted, bit for bit.

const (
	soDim  = 16
	soRows = 600 // two segments of 300
)

var soIndexTypes = []struct {
	typ, params string
	shared      bool // the index blob is the vector column
}{
	{"FLAT", "", true},
	{"HNSW", ",'M=8','EF_CONSTRUCTION=64'", true},
	{"HNSWSQ", ",'M=8','EF_CONSTRUCTION=64'", false},
	{"IVFFLAT", ",'NLIST=8'", false},
	{"IVFPQ", ",'NLIST=8','PQM=4'", false},
	{"IVFPQFS", ",'NLIST=8','PQM=4'", false},
	{"DISKANN", "", false},
}

var soMetrics = []struct {
	name, fn string
	metric   vec.Metric
}{
	{"L2", "L2Distance", vec.L2},
	{"IP", "InnerProduct", vec.InnerProduct},
	{"COSINE", "CosineDistance", vec.Cosine},
}

// soVectors is a fixed LCG stream in [-1,1), independent of any dataset
// generator, with a few values no encoder may normalise away.
func soVectors() []float32 {
	out := make([]float32, soRows*soDim)
	s := uint32(25)
	for i := range out {
		s = s*1664525 + 1013904223
		out[i] = float32(s>>8)/(1<<23) - 1
	}
	out[0], out[1], out[2] = float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, 1e-30
	return out
}

// soDistance is the test's own float64 distance, smaller is nearer, in
// the engine's reporting convention's order.
func soDistance(m vec.Metric, q, v []float32) float64 {
	var dot, qq, vv, l2 float64
	for i := range q {
		a, b := float64(q[i]), float64(v[i])
		dot, qq, vv, l2 = dot+a*b, qq+a*a, vv+b*b, l2+(a-b)*(a-b)
	}
	switch m {
	case vec.InnerProduct:
		return -dot
	case vec.Cosine:
		return 1 - dot/math.Sqrt(qq*vv)
	}
	return l2
}

// checkVectors asserts SELECT id, v returns exactly the live rows with
// exactly the inserted bits.
func checkVectors(t *testing.T, e *Engine, stage string, vecs []float32, dead map[int64]bool) {
	t.Helper()
	res := mustExec(t, e, "SELECT id, v FROM t WHERE id >= 0 ORDER BY id LIMIT 100000")
	if want := soRows - len(dead); len(res.Rows) != want {
		t.Fatalf("%s: %d rows, want %d", stage, len(res.Rows), want)
	}
	for _, row := range res.Rows {
		id, got := row[0].(int64), row[1].([]float32)
		if dead[id] {
			t.Fatalf("%s: deleted id %d returned", stage, id)
		}
		want := vecs[id*soDim : (id+1)*soDim]
		if len(got) != soDim {
			t.Fatalf("%s: id %d has %d floats", stage, id, len(got))
		}
		for d := range want {
			if math.Float32bits(got[d]) != math.Float32bits(want[d]) {
				t.Fatalf("%s: id %d dim %d = %x, inserted %x", stage, id, d, math.Float32bits(got[d]), math.Float32bits(want[d]))
			}
		}
	}
}

// checkLayout asserts which blob holds the vector column of every live
// segment.
func checkLayout(t *testing.T, e *Engine, store storage.BlobStore, stage string, shared bool) {
	t.Helper()
	tab := e.Table("t")
	for _, m := range tab.Segments() {
		_, err := store.Size(storage.ColumnKey("t", m.Name, "v"))
		if shared != storage.IsNotFound(err) {
			t.Fatalf("%s: segment %s: col_v.bin lookup = %v, index blob is the column: %t", stage, m.Name, err, shared)
		}
		for _, cm := range m.Columns {
			want := ""
			if shared && cm.Name == "v" {
				want = "idx_v.bin"
			}
			if cm.Blob != want {
				t.Fatalf("%s: segment %s column %s in blob %q, want %q", stage, m.Name, cm.Name, cm.Blob, want)
			}
		}
	}
}

func TestVectorColumnEveryLayoutEveryPath(t *testing.T) {
	vecs := soVectors()
	for _, it := range soIndexTypes {
		for _, mt := range soMetrics {
			t.Run(it.typ+"/"+mt.name, func(t *testing.T) {
				store := storage.NewMemStore()
				dests := newDestMap()
				cfg := func() Config {
					return Config{Store: storage.MaybeChaosFromEnv(store), SegmentRows: 300, WAL: noFlushWAL(),
						Backup: BackupConfig{OpenDest: dests.open}}
				}
				e := newEngine(t, cfg())
				mustExec(t, e, fmt.Sprintf(
					"CREATE TABLE t (id UInt64, attr Int64, v Array(Float32), INDEX ai v TYPE %s('DIM=%d','METRIC=%s','SEED=5'%s))",
					it.typ, soDim, mt.name, it.params))
				for start := 0; start < soRows; start += 100 {
					var sb strings.Builder
					sb.WriteString("INSERT INTO t VALUES ")
					for i := start; i < start+100; i++ {
						if i > start {
							sb.WriteByte(',')
						}
						fmt.Fprintf(&sb, "(%d, %d, %s)", i, i%7, vecLit(vecs[i*soDim:(i+1)*soDim]))
					}
					mustExec(t, e, sb.String())
				}
				dead := map[int64]bool{}
				checkVectors(t, e, "memtable", vecs, dead)
				if err := e.Table("t").FlushWAL(); err != nil {
					t.Fatal(err)
				}
				if got := e.Table("t").SegmentCount(); got != 2 {
					t.Fatalf("flush cut %d segments, want 2", got)
				}
				checkVectors(t, e, "flushed", vecs, dead)
				checkLayout(t, e, store, "flushed", it.shared)

				// Plan A reads the column granule by granule; its answer must
				// be the test's own exact top-k.
				strat := plan.BruteForce
				q := vecs[17*soDim : 18*soDim]
				ids := make([]int64, soRows)
				for i := range ids {
					ids[i] = int64(i)
				}
				sort.SliceStable(ids, func(a, b int) bool {
					return soDistance(mt.metric, q, vecs[ids[a]*soDim:(ids[a]+1)*soDim]) < soDistance(mt.metric, q, vecs[ids[b]*soDim:(ids[b]+1)*soDim])
				})
				fcfg := cfg()
				fcfg.Planner = plan.PlannerConfig{ForceStrategy: &strat}
				e.Close()
				forced := newEngine(t, fcfg)
				res := mustExec(t, forced, fmt.Sprintf("SELECT id FROM t ORDER BY %s(v, %s) LIMIT 10", mt.fn, vecLit(q)))
				if len(res.Rows) != 10 {
					t.Fatalf("plan A returned %d rows", len(res.Rows))
				}
				for i, row := range res.Rows {
					if row[0].(int64) != ids[i] {
						t.Fatalf("plan A rank %d = id %v, reference %d", i, row[0], ids[i])
					}
				}
				checkVectors(t, forced, "reopened", vecs, dead)
				checkLayout(t, forced, store, "reopened", it.shared)
				forced.Close()

				e = newEngine(t, cfg())
				mustExec(t, e, "DELETE FROM t WHERE id IN (0, 299, 300, 599)")
				for _, id := range []int64{0, 299, 300, 599} {
					dead[id] = true
				}
				mustExec(t, e, "BACKUP TABLE t TO 'bk'")
				mustExec(t, e, "OPTIMIZE TABLE t")
				if got := e.Table("t").SegmentCount(); got != 1 {
					t.Fatalf("compaction left %d segments", got)
				}
				checkVectors(t, e, "compacted", vecs, dead)
				checkLayout(t, e, store, "compacted", it.shared)
				e.Close()

				restored := newEngine(t, Config{SegmentRows: 300, Backup: BackupConfig{OpenDest: dests.open}})
				mustExec(t, restored, "RESTORE TABLE t FROM 'bk'")
				checkVectors(t, restored, "restored", vecs, dead)
				bk := dests.stores["bk"]
				keys, err := bk.List("")
				if err != nil {
					t.Fatal(err)
				}
				var colBlobs int
				for _, k := range keys {
					if strings.HasSuffix(k, "/col_v.bin") {
						colBlobs++
					}
				}
				want := 2 // one per segment backed up
				if it.shared {
					want = 0
				}
				if colBlobs != want {
					t.Fatalf("backup holds %d col_v.bin blobs, want %d", colBlobs, want)
				}
				restored.Close()
			})
		}
	}
}
