package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be more than an anecdote (choosing-metrics guide, §1).
const minBeyond = 10

// percentile returns the q-quantile of sorted (ascending) values, or —
// when fewer than minBeyond samples lie beyond it — the highest
// quantile that does have minBeyond samples beyond it. The quantile
// actually used is returned alongside, so a short smoke run reports
// "p95" under the p99 name visibly instead of silently.
func percentile(sorted []float64, q float64) (value, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if maxIdx := n - 1 - minBeyond; idx > maxIdx {
		idx = maxIdx
	}
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], float64(idx+1) / float64(n)
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values. The input is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles mirrors Python's statistics.quantiles(vals, n=4) (the
// "exclusive" method the driver uses): it needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 { // i-th cut point of 4
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median — the
// driver's steadiness measure for one metric over repeated runs.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// roundRates buckets completion offsets (ns since window start) into
// equal rounds and returns completions per second of each round.
func roundRates(endNS []int64, windowNS int64, rounds int) []float64 {
	counts := make([]int, rounds)
	per := windowNS / int64(rounds)
	for _, e := range endNS {
		r := int(e / per)
		if r >= rounds { // the query that straddled the deadline
			continue
		}
		counts[r]++
	}
	rates := make([]float64, rounds)
	for i, c := range counts {
		rates[i] = float64(c) / (float64(per) / 1e9)
	}
	return rates
}
