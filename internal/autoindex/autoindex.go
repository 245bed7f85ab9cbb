// Package autoindex implements the automatic index-parameter
// selection of paper §III-B ("Auto index"): per-segment indexes in an
// LSM engine vary enormously in size across levels, and build
// parameters — above all K_IVF, the number of coarse centroids — must
// track the segment's row count N or search performance collapses
// (paper Figure 7). Below MinIndexRows rows no index pays for its
// build, and SelectType picks an exact flat scan. Two mechanisms size
// the rest, matching the paper:
//
//   - Rules: instant K_IVF/M/ef selection from N via the faiss
//     guidelines (K ≈ 4·√N, ≥ ~39 training points per centroid),
//     used on the ingestion path where latency matters.
//   - Tuner: an offline sweep in the spirit of autofaiss that refines
//     parameters against a recall target using actual sample queries.
//     The paper runs it in background compaction; here the abl-tuner
//     experiment measures it against the rules, and compaction builds
//     with the rules, since the tuner picks by wall-clock latency and
//     would make a compacted segment's bytes depend on timing.
package autoindex

import (
	"fmt"
	"math"
	"time"

	"blendhouse/internal/index"
)

// MinIndexRows is the row count below which a segment is not worth an
// approximate index. Measured at M 8, efC 80, ef 64, 128-d, on one core
// of a 2-vCPU Xeon container: a 750-row HNSW graph searches in 21–25 µs
// against 19–26 µs for a full exact scan and costs about 1 700 scans to
// build, while at 3 000 rows the graph is twice as fast (35–45 µs
// against 84–107 µs); DESIGN.md decision 25 has the table
// (BenchmarkSmallSegmentSearch). Milvus, the paper's baseline, leaves
// segments below minSegmentSizeToEnableIndex — 1 024 rows by default —
// unindexed.
//
// It is not hnsw's batchMinRows, which happens to share the value: that
// constant governs how a graph is built, this one whether it is.
const MinIndexRows = 1024

// SelectType returns the index type a segment of n rows gets in a table
// of type t: index.Flat, an exact scan that needs no build, below
// MinIndexRows, and t from there on. It applies to every type — an IVF
// with 19 lists over 750 rows is no better a bargain than the graph.
func SelectType(t index.Type, n int) index.Type {
	if n < MinIndexRows {
		return index.Flat
	}
	return t
}

// SelectIVFNlist returns the rule-based K_IVF for a segment of n rows:
// 4·√N clamped so every centroid keeps at least minPointsPerCentroid
// training points.
func SelectIVFNlist(n int) int {
	if n <= 0 {
		return 1
	}
	const minPointsPerCentroid = 39 // faiss guideline
	k := int(4 * math.Sqrt(float64(n)))
	if k < 1 {
		k = 1
	}
	if maxK := n / minPointsPerCentroid; k > maxK {
		k = maxK
	}
	if k < 1 {
		k = 1
	}
	return k
}

// SelectHNSWM returns the rule-based HNSW out-degree for n rows:
// denser graphs for bigger segments, within hnswlib's recommended
// 8–48 band.
func SelectHNSWM(n int) int {
	switch {
	case n < 10_000:
		return 8
	case n < 100_000:
		return 16
	case n < 1_000_000:
		return 24
	default:
		return 32
	}
}

// Apply fills the size-dependent fields of p for an index of type t
// over n rows, leaving explicitly set values untouched. It is the
// ingestion-path rule engine.
func Apply(t index.Type, n int, p index.BuildParams) index.BuildParams {
	switch t {
	case index.IVFFlat, index.IVFPQ, index.IVFPQFS:
		if p.Nlist <= 0 {
			p.Nlist = SelectIVFNlist(n)
		}
	case index.HNSW, index.HNSWSQ:
		if p.M <= 0 {
			p.M = SelectHNSWM(n)
		}
		if p.EfConstruction <= 0 {
			p.EfConstruction = 10 * p.M
		}
	}
	return p
}

// TunerConfig drives the offline sweep over a ladder of candidates
// derived from the rule-based choice.
type TunerConfig struct {
	// K is the top-k used in evaluation queries.
	K int
	// RecallTarget is the floor a candidate must reach to qualify.
	RecallTarget float64
	// SearchParams used during evaluation.
	Search index.SearchParams
}

// TuneResult reports the winning candidate and its measurements.
type TuneResult struct {
	Params     index.BuildParams
	Recall     float64
	AvgLatency time.Duration
	BuildTime  time.Duration
	Evaluated  int
}

// Tune builds each candidate index over vectors, measures recall
// (against the provided ground truth) and mean query latency on the
// sample queries, and returns the fastest candidate meeting the recall
// target — falling back to the highest-recall candidate when none
// qualifies. It is deliberately brute force: it runs offline, never
// on the query path.
func Tune(t index.Type, dim int, vectors []float32, queries [][]float32, truth [][]int64, cfg TunerConfig) (*TuneResult, error) {
	n := len(vectors) / dim
	if n == 0 || len(queries) == 0 || len(queries) != len(truth) {
		return nil, fmt.Errorf("autoindex: need vectors, queries and aligned truth")
	}
	if cfg.K <= 0 {
		cfg.K = 10
	}
	if cfg.RecallTarget <= 0 {
		cfg.RecallTarget = 0.95
	}
	cands := ladder(t, dim, n)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	var best, fallback *TuneResult
	for _, p := range cands {
		p.Dim = dim
		buildStart := time.Now()
		ix, err := index.New(t, p)
		if err != nil {
			return nil, err
		}
		if ix.NeedsTrain() {
			if err := ix.Train(vectors); err != nil {
				return nil, err
			}
		}
		if err := ix.AddWithIDs(vectors, ids); err != nil {
			return nil, err
		}
		buildTime := time.Since(buildStart)

		hits, total := 0, 0
		qStart := time.Now()
		for qi, q := range queries {
			res, err := ix.SearchWithFilter(q, cfg.K, nil, cfg.Search)
			if err != nil {
				return nil, err
			}
			want := map[int64]bool{}
			for _, id := range truth[qi] {
				want[id] = true
			}
			total += len(truth[qi])
			for _, c := range res {
				if want[c.ID] {
					hits++
				}
			}
		}
		lat := time.Since(qStart) / time.Duration(len(queries))
		recall := 1.0
		if total > 0 {
			recall = float64(hits) / float64(total)
		}
		r := &TuneResult{Params: p, Recall: recall, AvgLatency: lat, BuildTime: buildTime, Evaluated: len(cands)}
		if fallback == nil || recall > fallback.Recall {
			fallback = r
		}
		if recall >= cfg.RecallTarget && (best == nil || lat < best.AvgLatency) {
			best = r
		}
	}
	if best == nil {
		best = fallback
	}
	return best, nil
}

// ladder proposes a small sweep bracketing the rule-based
// choice.
func ladder(t index.Type, dim, n int) []index.BuildParams {
	switch t {
	case index.IVFFlat, index.IVFPQ, index.IVFPQFS:
		base := SelectIVFNlist(n)
		var out []index.BuildParams
		for _, k := range []int{base / 4, base / 2, base, base * 2} {
			if k < 1 {
				continue
			}
			out = append(out, index.BuildParams{Dim: dim, Nlist: k})
		}
		return out
	case index.HNSW, index.HNSWSQ:
		base := SelectHNSWM(n)
		var out []index.BuildParams
		for _, m := range []int{base / 2, base, base * 2} {
			if m < 4 {
				continue
			}
			out = append(out, index.BuildParams{Dim: dim, M: m, EfConstruction: 10 * m})
		}
		return out
	default:
		return []index.BuildParams{{Dim: dim}}
	}
}
