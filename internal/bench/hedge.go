package bench

import (
	"fmt"
	"time"

	"pref/internal/cluster"
	"pref/internal/fault"
	"pref/internal/tpch"
)

// hedgeQueries is a small scan/join mix whose per-partition units are the
// straggler victims.
var hedgeQueries = []string{"Q1", "Q3", "Q6"}

// hedgeProbs is the straggler-probability sweep.
var hedgeProbs = []float64{0.05, 0.10, 0.20}

// hedgeStragglerDelay is the injected straggler sleep. Real wall time (not
// simulated cost): hedging is a latency-hiding mechanism, so the effect
// only shows on the clock.
const hedgeStragglerDelay = 5 * time.Millisecond

// HedgeSweep measures straggler tail latency with hedging off vs on. Off,
// every straggling unit serializes its full sleep into the query's wall
// time; on, the cluster launches a speculative duplicate on a buddy node
// after the quantile-priced delay and the first result wins. The wasted
// duplicate work is the price, metered per row. It runs on the paper's SD
// design, whose PREF duplicates are the redundancy degraded routing
// consumes.
func HedgeSweep(p Params) (*Report, error) {
	t := tpch.Generate(p.SF, p.Seed)
	vs, err := TPCHVariants(t, p.Parts)
	if err != nil {
		return nil, err
	}
	m, err := Materialize(vs["SD"], t.DB)
	if err != nil {
		return nil, err
	}
	stats := m.GroupStats()
	r := &Report{ID: "hedge", Title: "Straggler tail latency: hedging off vs on (SD, wall clock)",
		Columns: []string{"off_ms", "on_ms", "hedges", "wins", "wasted_rows"}}
	base := p.execOptions(t.DB.TotalRows())
	for _, prob := range hedgeProbs {
		pol := &fault.Policy{
			Seed:           p.Seed,
			StragglerProb:  prob,
			StragglerDelay: hedgeStragglerDelay,
		}
		var offWall, onWall time.Duration
		var hedges, wins int
		var wasted int64
		for _, on := range []bool{false, true} {
			copt := cluster.Options{Nodes: p.Parts}
			if on {
				copt.Hedge = cluster.HedgePolicy{Enabled: true, MaxDelay: 500 * time.Microsecond}
			}
			cl := cluster.New(copt)
			for _, q := range hedgeQueries {
				eopt := base
				eopt.Fault = pol
				eopt.Cluster = cl
				run, err := runQuery(t, vs["SD"], m, stats, q, eopt)
				if err != nil {
					cl.Close()
					return nil, fmt.Errorf("hedge sweep p=%.2f: %w", prob, err)
				}
				if on {
					onWall += run.Wall
					hedges += run.Stats.Hedges
					wins += run.Stats.HedgeWins
					wasted += run.Stats.HedgeWastedRows
				} else {
					offWall += run.Wall
				}
			}
			cl.Close()
		}
		r.Add(fmt.Sprintf("p=%.2f", prob),
			float64(offWall.Microseconds())/1000, float64(onWall.Microseconds())/1000,
			float64(hedges), float64(wins), float64(wasted))
	}
	r.Notes = append(r.Notes,
		"off_ms/on_ms are wall clock: hedging hides straggler sleeps behind speculative duplicates",
		"wasted_rows is the discarded output of hedge-race losers (the redundancy cost of the tail cut)")
	return r, nil
}
