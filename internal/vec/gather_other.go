//go:build !amd64

package vec

func gather(dot bool, q, data []float32, rows []uint32, out []float32) {
	rows4(dot, q, data, len(q), rows, out)
}

func lanes4(dot bool, q []float32, xs *[4][]float32, s *[4][4]float32) { lanes4Go(dot, q, xs, s) }
