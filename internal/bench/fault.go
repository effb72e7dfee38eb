package bench

import (
	"fmt"
	"time"

	"pref/internal/fault"
	"pref/internal/plan"
	"pref/internal/tpch"
)

// faultVariants are the designs whose degradation under faults we compare:
// no redundancy (AllHashed), full redundancy (AllReplicated), and the
// paper's schema-driven PREF design whose duplicates double as recovery
// redundancy.
var faultVariants = []string{"AllHashed", "AllReplicated", "SD"}

// faultProbs is the per-attempt crash/shipment-failure probability sweep.
var faultProbs = []float64{0, 0.02, 0.05, 0.10, 0.20}

// faultQueries is a representative TPC-H subset spanning scan-heavy (Q1,
// Q6), join-heavy (Q3, Q5), semi/anti-rewritten (Q4) and wide-aggregation
// (Q18) work, excluding the queries the paper drops.
var faultSweepQueries = []string{"Q1", "Q3", "Q4", "Q5", "Q6", "Q18"}

// FaultSweep measures how simulated latency and shipped bytes degrade as
// the per-attempt crash and shipment-failure probability rises, per design.
// Crashed attempts burn CPU that still occupies the node (stretching the
// parallel critical path); failed shipments put their bytes on the wire
// before the re-send. Because every fault draw compares one deterministic
// hash against the probability, the injected fault set at a higher
// probability is a superset of the set at a lower one — so per-variant
// degradation is monotone by construction, and the interesting signal is
// its slope per design.
func FaultSweep(p Params) (*Report, error) {
	t := tpch.Generate(p.SF, p.Seed)
	vs, err := TPCHVariants(t, p.Parts)
	if err != nil {
		return nil, err
	}
	mats := map[string]*Materialized{}
	stats := map[string][]*plan.Stats{}
	for _, name := range faultVariants {
		m, err := Materialize(vs[name], t.DB)
		if err != nil {
			return nil, err
		}
		mats[name], stats[name] = m, m.GroupStats()
	}
	cols := make([]string, 0, 2*len(faultVariants))
	for _, name := range faultVariants {
		cols = append(cols, name+"_ms", name+"_MB")
	}
	r := &Report{ID: "fault", Title: "Degradation vs fault probability (crash + shipment failure)",
		Columns: cols}
	base := p.execOptions(t.DB.TotalRows())
	for _, prob := range faultProbs {
		vals := make([]float64, 0, len(cols))
		for _, name := range faultVariants {
			eopt := base
			eopt.Fault = &fault.Policy{
				Seed:         p.Seed,
				CrashProb:    prob,
				ShipFailProb: prob,
				MaxAttempts:  10,
			}
			var sim time.Duration
			var bytes int64
			for _, q := range faultSweepQueries {
				if ExcludedQueries[q] {
					continue
				}
				run, err := runQuery(t, vs[name], mats[name], stats[name], q, eopt)
				if err != nil {
					return nil, fmt.Errorf("fault sweep p=%.2f: %w", prob, err)
				}
				sim += run.Sim
				bytes += run.Stats.BytesShipped
			}
			vals = append(vals, float64(sim.Microseconds())/1000, float64(bytes)/1e6)
		}
		r.Add(fmt.Sprintf("p=%.2f", prob), vals...)
	}
	r.Notes = append(r.Notes,
		"same seed across probabilities: a higher p injects a superset of the faults of a lower p")
	return r, nil
}
