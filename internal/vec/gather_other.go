//go:build !amd64

package vec

func lanes4(dot bool, q []float32, xs *[4][]float32, s *[4][4]float32) { lanes4Go(dot, q, xs, s) }
