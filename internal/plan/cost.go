package plan

// CostParams carries the constants of the accuracy-aware cost model
// (paper Table II). All values are seconds per unit.
type CostParams struct {
	// Cd: fetch a vector and compute a pairwise distance.
	Cd float64
	// Cc: fetch a code and run asymmetric distance computation.
	Cc float64
	// Cp: one bitmap test.
	Cp float64
	// CScan: evaluate the structured predicate on one row (T0 = n·CScan).
	CScan float64
	// Sigma: the σ amplification factor of the ANN scan operators.
	Sigma float64
}

// The committed cost table: the medians of 20 fresh-process timings at
// 128 dimensions (DESIGN.md decision 3). A plan is a pure function of
// the statement and the table it reads, never of how fast this process
// happened to run a loop.
const (
	perLane   = 0.53e-9 // Cd per dimension: one exact-distance lane
	perLookup = 2.1e-9  // Cc per PQ sub-quantizer: one ADC table lookup
)

// CostsFor returns the cost constants for dim-dimensional vectors: Cd
// grows with the dimensions an exact distance reads, Cc with the
// dim/4 sub-quantizers of the PQ codes an ADC scan reads.
func CostsFor(dim int) CostParams {
	return CostParams{
		Cd:    float64(dim) * perLane,
		Cc:    float64(max(1, dim/4)) * perLookup,
		Cp:    1.13e-9,
		CScan: 0.71e-9,
		Sigma: 2,
	}
}

// CostInputs summarize a query for the cost model.
type CostInputs struct {
	N int     // total rows
	S float64 // selectivity: fraction of rows qualifying the predicate
	K int     // requested top-k
	// Beta is the fraction of rows an unfiltered ANN scan visits
	// (ef/N for graphs, nprobe/nlist for IVF).
	Beta float64
	// Gamma is the fraction a bitmap ANN scan visits (typically a bit
	// above Beta because blocked entries force deeper traversal).
	Gamma float64
}

// CostA is Equation 1 — brute force: structured scan then exact
// distances over the s·n qualifying rows.
func CostA(in CostInputs, p CostParams) float64 {
	t0 := float64(in.N) * p.CScan
	return t0 + in.S*float64(in.N)*p.Cd
}

// CostB is Equation 2 — pre-filter: structured scan, bitmap build,
// ANN bitmap scan visiting γ·n/s entries with a bitmap test each and
// ADC on the s-fraction that pass, then σ·k exact refinements.
func CostB(in CostInputs, p CostParams) float64 {
	t0 := float64(in.N) * p.CScan
	amplified := in.Gamma * float64(in.N) / clampS(in.S)
	return t0 + amplified*(p.Cp+in.S*p.Cc) + p.Sigma*float64(in.K)*p.Cd
}

// CostC is Equation 3 — post-filter: iterative ANN scan visiting
// β·n/s entries with ADC, then σ·k exact refinements; the scalar
// filter runs on the tiny candidate stream and is negligible.
func CostC(in CostInputs, p CostParams) float64 {
	amplified := in.Beta * float64(in.N) / clampS(in.S)
	return amplified*p.Cc + p.Sigma*float64(in.K)*p.Cd
}

func clampS(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}

// Choose evaluates the three plans and returns the cheapest with its
// estimated cost.
func Choose(in CostInputs, p CostParams) (Strategy, float64) {
	a := CostA(in, p)
	b := CostB(in, p)
	c := CostC(in, p)
	best, cost := BruteForce, a
	if b < cost {
		best, cost = PreFilter, b
	}
	if c < cost {
		best, cost = PostFilter, c
	}
	return best, cost
}

// BatchInputs summarize the *observed* state feeding the batched-vs-
// solo decision for one query. Unlike CostInputs these are not static
// estimates: SegLatency and Selectivity come from the executor's
// obs.ScanStats EWMAs, ExpectedGroup from the scheduler's measured
// arrival rate and admission wait. All times are seconds.
type BatchInputs struct {
	// SegLatency is the observed average wall time of one shared
	// per-segment scan (0 = no observations yet).
	SegLatency float64
	// Segments is the table's current segment count.
	Segments int
	// Selectivity is the observed qualifying fraction of filtered
	// segments (0 = unobserved; treated as 1, the conservative case
	// where the ANN traversal dominates and sharing saves the least).
	Selectivity float64
	// ExpectedGroup is the group size the scheduler expects to form
	// within the window at the current arrival rate (>= 1).
	ExpectedGroup float64
	// Window is the formation window the query would wait.
	Window float64
}

// batchOverheadFloor is the fixed per-group coordination cost
// (scheduling, fan-out/fan-in) a group must amortize beyond the
// formation window before batching pays.
const batchOverheadFloor = 100e-6

// ChooseBatch decides whether a query should wait for a shared-scan
// group or run solo, returning the decision and the estimated wall
// seconds the expected group saves versus isolated execution.
//
// Per extra member, a shared scan saves the fraction of per-segment
// work that is member-independent: the predicate bitset build, the
// delete-bitmap and column reads, and the index load. The ANN
// traversal itself stays per-member, so the shared fraction shrinks as
// selectivity rises (more qualifying rows → the per-member search
// dominates) and grows as the predicate gets tighter. Batching wins
// when the expected saving exceeds the formation window plus the fixed
// coordination floor.
//
// With no latency observations yet the decision is to batch: the
// exploration cost is one formation window, and the resulting shared
// scan produces the very observations later decisions run on.
func ChooseBatch(in BatchInputs) (bool, float64) {
	if in.SegLatency <= 0 {
		return true, 0
	}
	segs := in.Segments
	if segs < 1 {
		segs = 1
	}
	eg := in.ExpectedGroup
	if eg < 1 {
		eg = 1
	}
	sel := in.Selectivity
	if sel <= 0 || sel > 1 {
		sel = 1
	}
	sharedFrac := 0.5 + 0.5*(1-sel)
	saved := (eg - 1) * sharedFrac * in.SegLatency * float64(segs)
	return saved > in.Window+batchOverheadFloor, saved
}

// VisitFractions derives β and γ from search parameters and the table
// shape: graph indexes visit ~ef of n; IVF visits nprobe/nlist of the
// lists. γ adds the traversal overhead of skipping blocked entries.
func VisitFractions(ef, nprobe, nlist, n int, graph bool) (beta, gamma float64) {
	if n <= 0 {
		return 0, 0
	}
	if graph {
		if ef <= 0 {
			ef = 64
		}
		beta = float64(ef) / float64(n)
	} else {
		if nlist <= 0 {
			nlist = 64
		}
		if nprobe <= 0 {
			nprobe = 8
		}
		beta = float64(nprobe) / float64(nlist)
	}
	if beta > 1 {
		beta = 1
	}
	gamma = beta * 1.3 // blocked-entry traversal overhead
	if gamma > 1 {
		gamma = 1
	}
	return beta, gamma
}
