package dataset

import (
	"testing"

	"blendhouse/internal/vec"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Spec{Name: "x", N: 200, Dim: 8, Seed: 5, WithInts: true, WithCaptions: true})
	b := Generate(Spec{Name: "x", N: 200, Dim: 8, Seed: 5, WithInts: true, WithCaptions: true})
	for i := range a.Vectors.Data {
		if a.Vectors.Data[i] != b.Vectors.Data[i] {
			t.Fatal("same seed produced different vectors")
		}
	}
	for i := range a.Ints {
		if a.Ints[i] != b.Ints[i] {
			t.Fatal("same seed produced different attrs")
		}
	}
	c := Generate(Spec{Name: "x", N: 200, Dim: 8, Seed: 6})
	same := true
	for i := range a.Vectors.Data {
		if a.Vectors.Data[i] != c.Vectors.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical vectors")
	}
}

func TestGenerateShapes(t *testing.T) {
	ds := Generate(Spec{Name: "x", N: 300, Dim: 12, Queries: 17, Seed: 1,
		WithInts: true, WithFloats: true, WithCaptions: true, WithProdCols: true})
	if ds.Vectors.Rows() != 300 || ds.Vectors.Dim != 12 {
		t.Fatalf("vectors %dx%d", ds.Vectors.Rows(), ds.Vectors.Dim)
	}
	if ds.Queries.Rows() != 17 {
		t.Fatalf("queries = %d", ds.Queries.Rows())
	}
	if len(ds.Ints) != 300 || len(ds.Floats) != 300 || len(ds.Captions) != 300 {
		t.Fatal("scalar columns missing")
	}
	if len(ds.Category) != 300 || len(ds.Region) != 300 || len(ds.TSMillis) != 300 {
		t.Fatal("prod columns missing")
	}
	// Timestamps ascend (production sampling order).
	for i := 1; i < 300; i++ {
		if ds.TSMillis[i] < ds.TSMillis[i-1] {
			t.Fatal("timestamps not ascending")
		}
	}
	// Cluster assignments valid.
	for _, c := range ds.ClusterOf {
		if c < 0 || c >= ds.Spec.Clusters {
			t.Fatalf("cluster id %d out of range", c)
		}
	}
	// Floats in [0,1).
	for _, f := range ds.Floats {
		if f < 0 || f >= 1 {
			t.Fatalf("similarity %v out of range", f)
		}
	}
}

func TestClusteredStructure(t *testing.T) {
	// Same-cluster rows must on average be far closer than
	// cross-cluster rows, or the ANN/partitioning experiments are
	// meaningless.
	ds := Generate(Spec{Name: "x", N: 400, Dim: 16, Clusters: 4, Seed: 2})
	var same, cross float64
	var nSame, nCross int
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			d := float64(vec.L2Squared(ds.Vectors.Row(i), ds.Vectors.Row(j)))
			if ds.ClusterOf[i] == ds.ClusterOf[j] {
				same += d
				nSame++
			} else {
				cross += d
				nCross++
			}
		}
	}
	if nSame == 0 || nCross == 0 {
		t.Fatal("degenerate cluster assignment")
	}
	if same/float64(nSame) >= cross/float64(nCross)/2 {
		t.Fatalf("clusters not separated: same=%.4f cross=%.4f", same/float64(nSame), cross/float64(nCross))
	}
}

func TestGroundTruthAndRecall(t *testing.T) {
	ds := Small(300, 8, 3)
	truth := ds.GroundTruth(vec.L2, 5, nil)
	if len(truth) != ds.Queries.Rows() {
		t.Fatalf("truth arity %d", len(truth))
	}
	for _, ids := range truth {
		if len(ids) != 5 {
			t.Fatalf("truth row has %d ids", len(ids))
		}
	}
	// Perfect recall against itself.
	if r := Recall(truth, truth); r != 1 {
		t.Fatalf("self recall = %v", r)
	}
	// Half-overlapping lists.
	got := make([][]int64, len(truth))
	for i, ids := range truth {
		got[i] = append([]int64{}, ids...)
		got[i][0] = -1 // one wrong of five
	}
	if r := Recall(truth, got); r != 0.8 {
		t.Fatalf("partial recall = %v, want 0.8", r)
	}
	// Truth is sorted ascending by distance.
	q := ds.Queries.Row(0)
	prev := float32(-1)
	for _, id := range truth[0] {
		d := vec.L2Squared(q, ds.Vectors.Row(int(id)))
		if d < prev {
			t.Fatal("ground truth not sorted by distance")
		}
		prev = d
	}
}

func TestGroundTruthFiltered(t *testing.T) {
	ds := Small(300, 8, 4)
	keep := func(i int) bool { return i%2 == 0 }
	truth := ds.GroundTruth(vec.L2, 10, keep)
	for _, ids := range truth {
		for _, id := range ids {
			if id%2 != 0 {
				t.Fatalf("filtered truth contains excluded id %d", id)
			}
		}
	}
	// Filter excluding everything yields empty truth and recall 1.
	empty := ds.GroundTruth(vec.L2, 10, func(int) bool { return false })
	if r := Recall(empty, empty); r != 1 {
		t.Fatalf("empty-truth recall = %v", r)
	}
}

func TestPresets(t *testing.T) {
	if d := Cohere(100, 1); d.Spec.Dim != 768 || d.Ints == nil {
		t.Fatal("Cohere preset wrong")
	}
	if d := OpenAI(100, 1); d.Spec.Dim != 1536 {
		t.Fatal("OpenAI preset wrong")
	}
	if d := LAION(100, 1); d.Spec.Dim != 512 || d.Captions == nil || d.Floats == nil {
		t.Fatal("LAION preset wrong")
	}
}
