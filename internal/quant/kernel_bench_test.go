package quant

import (
	"math/rand"
	"testing"

	"blendhouse/internal/vec"
)

// Kernel microbenchmarks: the SQ8 integer kernel must not be slower
// than the float32 kernel, or HNSWSQ loses its reason to exist.
func BenchmarkFloat32L2Kernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, 96)
	y := make([]float32, 96)
	for i := range x {
		x[i] = rng.Float32()
		y[i] = rng.Float32()
	}
	b.ResetTimer()
	var acc float32
	for i := 0; i < b.N; i++ {
		acc += vec.L2Squared(x, y)
	}
	_ = acc
}

func BenchmarkSQ8CodeL2Kernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 96*100)
	for i := range data {
		data[i] = rng.Float32()
	}
	sq, err := TrainScalar(data, 96)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]byte, 96)
	y := make([]byte, 96)
	sq.Encode(data[:96], x)
	sq.Encode(data[96:192], y)
	b.ResetTimer()
	var acc float32
	for i := 0; i < b.N; i++ {
		acc += sq.CodeL2Squared(x, y)
	}
	_ = acc
}
