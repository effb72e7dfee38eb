package main

import (
	"math/rand"
	"time"
)

// Fixed load. None of these adapts to how fast the host happens to be:
// the PR 13 benchmark calibrated its rate at run time and its two
// same-code sets disagreed by up to 10 %.
const (
	parts   = 4       // prefserve -parts
	tenant  = "bench" // the one tenant, weight 1, no quota
	clients = 2       // closed-loop HTTP clients = nproc of the reference host

	httpTimeout   = 5 * time.Second // ?timeout= on every HTTP query
	inprocTimeout = time.Second     // context deadline on every in-process query

	mixedColdStartsPer = 3 // mixed_rw: in-process cold starts per prefserve cold start of the others

	// countSeed generates the count pass's data and write stream whatever
	// --seed is, so that shipped_mb_per_query, sim_ms_per_query and
	// stored_ratio are functions of the program alone and can carry a bound
	// near zero. Seeded by --seed they moved by up to 12 % between seeds
	// (Q1's four groups hash to three or to four nodes).
	countSeed = 42

	writerPace   = 50 * time.Millisecond // mixed_rw: 20 write batches per second
	ordersPerOp  = 10                    // mixed_rw: new orders per insert batch
	countBatches = 100                   // mixed_rw count pass: write batches applied
	countEvery   = 10                    // mixed_rw count pass: read mix after every n-th batch
	verifyEvery  = 8                     // mixed_rw: every n-th epoch is re-executed on the oracle
)

// workload is one traffic mix against one partitioning variant.
type workload struct {
	name    string
	variant string   // bench.TPCHVariants key
	mix     []string // TPC-H query names, uniform
	http    bool     // through a prefserve process; otherwise in-process with a writer
	// replayRounds is how many times the traced pass replays the whole mix
	// layer by layer; sized so the pass takes a few seconds on each workload.
	replayRounds int
	why          string
}

var workloads = []workload{
	{
		name: "join_pref", variant: "SD", http: true, replayRounds: 3,
		mix: []string{"Q3", "Q5", "Q7", "Q10", "Q12", "Q18", "Q21"},
		why: "joins are partition-local under the PREF chain, so join and dedup kernels work and exchange idles",
	},
	{
		name: "join_hashed", variant: "AllHashed", http: true, replayRounds: 2,
		mix: []string{"Q3", "Q5", "Q7", "Q10", "Q12", "Q18", "Q21"},
		why: "same queries, seed and scale with every join repartitioned, so exchange and shipment metering dominate",
	},
	{
		name: "agg_scan", variant: "SD", http: true, replayRounds: 8,
		mix: []string{"Q1", "Q6", "Q15"},
		why: "single-table scan, filter and aggregate through the row shim; no join runs, so a join change must not move it",
	},
	{
		name: "mixed_rw", variant: "SD", replayRounds: 30,
		mix: []string{"Q3", "Q4", "Q6", "Q12", "Q14"},
		why: "one reader beside a paced writer on a shared store: every publish misses the plan cache and rebuilds projections",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale holds what the smoke test shrinks; everything else is a constant.
type scale struct {
	httpSF, mixedSF float64
	warmup          time.Duration
	coldStarts      int
}

var (
	fullScale  = scale{httpSF: 0.05, mixedSF: 0.01, warmup: 3 * time.Second, coldStarts: 3}
	smokeScale = scale{httpSF: 0.002, mixedSF: 0.002, warmup: 100 * time.Millisecond, coldStarts: 1}
)

func (s scale) sf(wl workload) float64 {
	if wl.http {
		return s.httpSF
	}
	return s.mixedSF
}

// querySeq is one client's seeded query order: back-to-back random
// permutations of the mix, so every query has exactly its share of any run
// of len(mix) requests and a window's cost does not depend on how many
// heavy queries a uniform draw happened to pick.
type querySeq struct {
	rng   *rand.Rand
	mix   []string
	round []string
}

func newQuerySeq(mix []string, seed int64, client int) *querySeq {
	return &querySeq{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), mix: mix}
}

func (s *querySeq) next() string {
	if len(s.round) == 0 {
		s.round = append(s.round, s.mix...)
		s.rng.Shuffle(len(s.round), func(i, j int) { s.round[i], s.round[j] = s.round[j], s.round[i] })
	}
	q := s.round[0]
	s.round = s.round[1:]
	return q
}
