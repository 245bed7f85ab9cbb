package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestL2SquaredKnown(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 6, 3}
	if got := L2Squared(a, b); got != 25 {
		t.Fatalf("L2Squared = %v, want 25", got)
	}
}

func TestL2SquaredZeroForIdentical(t *testing.T) {
	a := []float32{0.5, -1.25, 3.75, 2, 9, -0.125, 4, 1}
	if got := L2Squared(a, a); got != 0 {
		t.Fatalf("L2Squared(a,a) = %v, want 0", got)
	}
}

func TestDotKnown(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	if got := Dot(a, b); got != 35 {
		t.Fatalf("Dot = %v, want 35", got)
	}
}

func TestUnrollTailHandling(t *testing.T) {
	// Lengths around the 4-way unroll boundary must all agree with a
	// naive implementation.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 9; n++ {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = rng.Float32()
			b[i] = rng.Float32()
		}
		var wantL2, wantDot float64
		for i := range a {
			d := float64(a[i] - b[i])
			wantL2 += d * d
			wantDot += float64(a[i]) * float64(b[i])
		}
		if got := float64(L2Squared(a, b)); !almostEqual(got, wantL2, 1e-5) {
			t.Errorf("n=%d: L2Squared = %v, want %v", n, got, wantL2)
		}
		if got := float64(Dot(a, b)); !almostEqual(got, wantDot, 1e-5) {
			t.Errorf("n=%d: Dot = %v, want %v", n, got, wantDot)
		}
	}
}

func TestCosineDistanceProperties(t *testing.T) {
	a := []float32{1, 0, 0}
	if got := CosineDistance(a, a); !almostEqual(float64(got), 0, 1e-6) {
		t.Errorf("cosine(a,a) = %v, want 0", got)
	}
	b := []float32{-1, 0, 0}
	if got := CosineDistance(a, b); !almostEqual(float64(got), 2, 1e-6) {
		t.Errorf("cosine(a,-a) = %v, want 2", got)
	}
	c := []float32{0, 1, 0}
	if got := CosineDistance(a, c); !almostEqual(float64(got), 1, 1e-6) {
		t.Errorf("cosine(orthogonal) = %v, want 1", got)
	}
	zero := []float32{0, 0, 0}
	if got := CosineDistance(a, zero); got != 1 {
		t.Errorf("cosine(a,0) = %v, want 1", got)
	}
}

func TestCosineScaleInvariance(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]float32, len(raw))
		b := make([]float32, len(raw))
		nonzero := false
		for i, v := range raw {
			a[i] = float32(v)
			b[i] = float32(v) * 3.5
			if v != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			return true
		}
		return almostEqual(float64(CosineDistance(a, b)), 0, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestL2SymmetryProperty(t *testing.T) {
	f := func(x, y [8]int16) bool {
		a := make([]float32, 8)
		b := make([]float32, 8)
		for i := 0; i < 8; i++ {
			a[i] = float32(x[i]) / 128
			b[i] = float32(y[i]) / 128
		}
		return L2Squared(a, b) == L2Squared(b, a) && L2Squared(a, b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	// sqrt(L2Squared) must satisfy the triangle inequality.
	f := func(x, y, z [6]int8) bool {
		a, b, c := make([]float32, 6), make([]float32, 6), make([]float32, 6)
		for i := 0; i < 6; i++ {
			a[i], b[i], c[i] = float32(x[i]), float32(y[i]), float32(z[i])
		}
		ab := math.Sqrt(float64(L2Squared(a, b)))
		bc := math.Sqrt(float64(L2Squared(b, c)))
		ac := math.Sqrt(float64(L2Squared(a, c)))
		return ac <= ab+bc+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceMetricDispatch(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 4}
	if got := Distance(L2, a, b); got != L2Squared(a, b) {
		t.Errorf("L2 dispatch mismatch")
	}
	if got := Distance(InnerProduct, a, b); got != -Dot(a, b) {
		t.Errorf("IP dispatch mismatch: %v", got)
	}
	if got := Distance(Cosine, a, b); got != CosineDistance(a, b) {
		t.Errorf("cosine dispatch mismatch")
	}
}

func TestParseMetric(t *testing.T) {
	cases := map[string]Metric{
		"L2Distance":     L2,
		"l2":             L2,
		"InnerProduct":   InnerProduct,
		"CosineDistance": Cosine,
	}
	for name, want := range cases {
		got, err := ParseMetric(name)
		if err != nil || got != want {
			t.Errorf("ParseMetric(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseMetric("Hamming"); err == nil {
		t.Error("want error for unknown metric")
	}
}

func TestDistancesTo(t *testing.T) {
	data := []float32{0, 0, 3, 4, 1, 0}
	q := []float32{0, 0}
	out := make([]float32, 3)
	DistancesTo(L2, q, data, 2, out)
	want := []float32{0, 25, 1}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestArgMin(t *testing.T) {
	if ArgMin(nil) != -1 {
		t.Error("ArgMin(nil) should be -1")
	}
	if got := ArgMin([]float32{3, 1, 2}); got != 1 {
		t.Errorf("ArgMin = %d, want 1", got)
	}
	// First minimum wins on ties.
	if got := ArgMin([]float32{2, 1, 1}); got != 1 {
		t.Errorf("ArgMin tie = %d, want 1", got)
	}
}

func TestMatrix(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", m.Rows())
	}
	m.SetRow(1, []float32{1, 2, 3})
	if got := m.Row(1); got[2] != 3 {
		t.Fatalf("Row(1) = %v", got)
	}
	m.Append([]float32{4, 5, 6})
	if m.Rows() != 3 || m.Row(2)[0] != 4 {
		t.Fatalf("after Append: rows=%d row2=%v", m.Rows(), m.Row(2))
	}
}

func TestMatrixAppendDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on dim mismatch")
		}
	}()
	NewMatrix(1, 3).Append([]float32{1})
}

func TestAddScaleCopy(t *testing.T) {
	a := []float32{1, 2}
	Add(a, []float32{10, 20})
	if a[0] != 11 || a[1] != 22 {
		t.Fatalf("Add: %v", a)
	}
	Scale(a, 2)
	if a[0] != 22 || a[1] != 44 {
		t.Fatalf("Scale: %v", a)
	}
	c := Copy(a)
	c[0] = 0
	if a[0] != 22 {
		t.Fatal("Copy must not alias")
	}
}
