package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"blendhouse/internal/index"
	_ "blendhouse/internal/index/flat"
	"blendhouse/internal/lsm"
	"blendhouse/internal/storage"
)

// The planner is a pure function of the statement and the table: the
// cost constants are a committed table scaled by the query's
// dimension, so two planners, two processes or two planning orders
// choose the same plan at the same estimated cost.

// shapeTable builds a table of the standing benchmark's shape: n rows
// of dim-d vectors under an HNSW index type, "attr" uniform on
// [0, 1e6) and "ts" ascending by 1 000 per row from 0. Auto-index
// keeps its 750-row segments flat, so it builds in milliseconds; the
// planner reads only the row count, the index type and the histograms.
func shapeTable(t *testing.T, n, dim int) *lsm.Table {
	t.Helper()
	tab, err := lsm.Create(storage.NewMemStore(), lsm.Options{
		Name: "t",
		Schema: &storage.Schema{Columns: []storage.ColumnDef{
			{Name: "id", Type: storage.Int64Type},
			{Name: "attr", Type: storage.Int64Type},
			{Name: "ts", Type: storage.Int64Type},
			{Name: "v", Type: storage.VectorType, Dim: dim},
		}},
		IndexColumn: "v", IndexType: index.HNSW, AutoIndex: true,
		SegmentRows: 750, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	b := storage.NewRowBatch(tab.Schema())
	for i := 0; i < n; i++ {
		b.Col("id").Ints = append(b.Col("id").Ints, int64(i))
		b.Col("attr").Ints = append(b.Col("attr").Ints, rng.Int63n(1_000_000))
		b.Col("ts").Ints = append(b.Col("ts").Ints, int64(i)*1000)
		for d := 0; d < dim; d++ {
			b.Col("v").Vecs = append(b.Col("v").Vecs, rng.Float32())
		}
	}
	if err := tab.Insert(b); err != nil {
		t.Fatal(err)
	}
	return tab
}

// shapeQuery is a top-10 statement of the benchmark's form over a
// dim-d query vector.
func shapeQuery(dim int, where string) string {
	parts := make([]string, dim)
	for i := range parts {
		parts[i] = strconv.FormatFloat(float64(i%7)/7, 'g', -1, 32)
	}
	return fmt.Sprintf("SELECT id, attr, d FROM t WHERE %s ORDER BY L2Distance(v, [%s]) AS d LIMIT 10",
		where, strings.Join(parts, ","))
}

// TestPlanAtBenchmarkShapes pins the plans the standing benchmark's
// filtered workloads run: hybrid_mix_serve's 1 %, 50 % and 99 %
// classes and cold_remote_tiered's two-segment window (12.5 %), over
// 12 000 128-d rows with an HNSW index type, k = 10 and no ef_search.
func TestPlanAtBenchmarkShapes(t *testing.T) {
	tab := shapeTable(t, 12000, 128)
	for _, c := range []struct {
		name, where string
		want        Strategy
	}{
		{"1 %", "attr < 10000", PreFilter},
		{"50 %", "attr < 500000", PostFilter},
		{"99 %", "attr < 990000", PostFilter},
		{"12.5 % window", "ts BETWEEN 6000000 AND 7499000", PostFilter},
	} {
		ph, err := NewPlanner(PlannerConfig{}).Plan(parseSelect(t, shapeQuery(128, c.where)), tab)
		if err != nil {
			t.Fatal(err)
		}
		if ph.Strategy != c.want {
			_, a, b, cc, _ := NewPlanner(PlannerConfig{}).CostBreakdown(ph.Logical, tab)
			t.Errorf("%s (s=%.4g): chose %v, want %v (A=%.3g B=%.3g C=%.3g)", c.name, ph.Selectivity, ph.Strategy, c.want, a, b, cc)
		}
	}
}

// TestPlansIdenticalAcrossPlanners: two fresh planners give equal
// Physical values, estimated cost included, and equal EXPLAIN costs.
func TestPlansIdenticalAcrossPlanners(t *testing.T) {
	tab := shapeTable(t, 12000, 128)
	for _, where := range []string{"attr < 10000", "attr < 500000", "ts BETWEEN 6000000 AND 7499000"} {
		var phs [2]*Physical
		var costs [2][4]float64
		for i := range phs {
			pl := NewPlanner(PlannerConfig{})
			ph, err := pl.Plan(parseSelect(t, shapeQuery(128, where)), tab)
			if err != nil {
				t.Fatal(err)
			}
			phs[i] = ph
			s, a, b, c, ok := pl.CostBreakdown(ph.Logical, tab)
			if !ok {
				t.Fatalf("%s: no cost breakdown", where)
			}
			costs[i] = [4]float64{s, a, b, c}
		}
		if !reflect.DeepEqual(phs[0], phs[1]) {
			t.Errorf("%s: planners disagree: %+v vs %+v", where, *phs[0], *phs[1])
		}
		if costs[0] != costs[1] {
			t.Errorf("%s: cost breakdowns disagree: %v vs %v", where, costs[0], costs[1])
		}
		if phs[0].EstCost <= 0 {
			t.Errorf("%s: no estimated cost: %+v", where, *phs[0])
		}
	}
}

// TestPlansIndependentOfTableOrder: each table is priced at its own
// dimension, whichever table a planner met first.
func TestPlansIndependentOfTableOrder(t *testing.T) {
	tabs := map[int]*lsm.Table{128: shapeTable(t, 12000, 128), 16: shapeTable(t, 3000, 16)}
	plans := func(order ...int) map[int]*Physical {
		pl := NewPlanner(PlannerConfig{})
		out := map[int]*Physical{}
		for _, dim := range order {
			ph, err := pl.Plan(parseSelect(t, shapeQuery(dim, "attr < 10000")), tabs[dim])
			if err != nil {
				t.Fatal(err)
			}
			out[dim] = ph
		}
		return out
	}
	ab, ba := plans(128, 16), plans(16, 128)
	for dim := range tabs {
		if !reflect.DeepEqual(ab[dim], ba[dim]) {
			t.Errorf("%d-d table planned after the other differs: %+v vs %+v", dim, *ab[dim], *ba[dim])
		}
		ph := ab[dim]
		if _, want := Choose(costInputs(ph.Logical, tabs[dim], ph.Selectivity), CostsFor(dim)); ph.EstCost != want {
			t.Errorf("%d-d: estimated cost %v, priced at %d dimensions %v", dim, ph.EstCost, dim, want)
		}
	}
}

func TestCostsForScalesWithDim(t *testing.T) {
	base := CostsFor(1)
	for _, dim := range []int{1, 2, 3, 4, 16, 64, 128, 768, 960} {
		p := CostsFor(dim)
		if p.Cd != float64(dim)*base.Cd {
			t.Errorf("CostsFor(%d).Cd = %v, want %d × %v", dim, p.Cd, dim, base.Cd)
		}
		if want := float64(max(1, dim/4)) * base.Cc; p.Cc != want {
			t.Errorf("CostsFor(%d).Cc = %v, want %v", dim, p.Cc, want)
		}
		if p.Cp != base.Cp || p.CScan != base.CScan || p.Sigma != base.Sigma {
			t.Errorf("CostsFor(%d) moved a per-row constant: %+v vs %+v", dim, p, base)
		}
		if p.Cd <= 0 || p.Cc <= 0 || p.Cp <= 0 || p.CScan <= 0 {
			t.Errorf("CostsFor(%d) = %+v has a non-positive constant", dim, p)
		}
	}
	if p := CostsFor(128); p.Cd <= p.Cp {
		t.Errorf("an exact distance (%v) must cost more than a bitmap test (%v)", p.Cd, p.Cp)
	}
}
