package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pref/internal/cluster"
	"pref/internal/engine"
	"pref/internal/fault"
	"pref/internal/plan"
	"pref/internal/serve"
	"pref/internal/tpch"
)

// Cluster-resilience experiments: the hedging tail-latency sweep (on the
// paper's SD design, whose PREF duplicates are the redundancy degraded
// routing consumes) and the multi-schedule health-layer soak (on
// AllReplicated, whose full redundancy lets every lost node rebuild).

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
// duplicate work is the price, metered per row.
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
				copt.Hedge = cluster.HedgePolicy{
					Enabled:  true,
					MinDelay: 100 * time.Microsecond,
					MaxDelay: 500 * time.Microsecond,
				}
			}
			cl := cluster.New(copt)
			for _, q := range hedgeQueries {
				eopt := base
				eopt.Fault = pol
				eopt.Cluster = cl
				run, err := runQuery(t, vs["SD"], m, q, plan.Options{}, p.Cost, eopt)
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

// soakScenarios are the fault regimes the health-layer soak cycles
// through, each exercising a different leg of the node state machine.
var soakScenarios = []struct {
	name string
	pol  func(seed int64, parts int) *fault.Policy
}{
	{"crash-storm", func(seed int64, _ int) *fault.Policy {
		return &fault.Policy{Seed: seed, CrashProb: 0.10, ShipFailProb: 0.05, MaxAttempts: 8}
	}},
	{"flaky-node", func(seed int64, parts int) *fault.Policy {
		return &fault.Policy{Seed: seed, FlakyNodes: map[int]int{int(seed) % parts: 99}}
	}},
	{"down-node", func(seed int64, parts int) *fault.Policy {
		return &fault.Policy{Seed: seed, DownNodes: []int{int(seed) % parts}}
	}},
	{"down+repair", func(seed int64, parts int) *fault.Policy {
		n := int(seed) % parts
		return &fault.Policy{Seed: seed, DownNodes: []int{n}, RepairAfterProbes: map[int]int{n: 1}}
	}},
}

// soakSchedulesPerScenario is how many seed-distinct schedules each
// scenario runs; each schedule executes the hedgeQueries battery against
// one shared cluster so health knowledge carries across queries.
const soakSchedulesPerScenario = 5

// typedFailure reports whether a failed query or submission carries one of
// the typed, contractual error classes — the one list the soak experiment,
// the write-crash soak and the serving soak all check against. Anything
// else is a taxonomy hole and fails the caller.
func typedFailure(err error) bool {
	// Every ladder rejection — quota, shed, queue timeout, closed — is a
	// *serve.RejectedError around its sentinel.
	var rej *serve.RejectedError
	return errors.As(err, &rej) ||
		errors.Is(err, fault.ErrPartitionLost) || // *fault.PartitionLostError unwraps to it
		errors.Is(err, fault.ErrNodeFailed) ||
		errors.Is(err, fault.ErrShipmentFailed) ||
		errors.Is(err, cluster.ErrNodeTripped) ||
		errors.Is(err, engine.ErrAllNodesDown) ||
		// engine.ErrDeadlineExceeded wraps the context error, so the bare
		// match covers typed and untyped deadline kills alike.
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// ResilienceSoak runs seed-swept fault schedules per scenario, each a
// query sequence against one shared cluster health layer, and reports how
// the layer absorbed them: queries that completed, typed failures, breaker
// trips, half-open probes, and background rebuilds. It runs AllReplicated
// — full redundancy — so a lost node is always recoverable and the soak
// exercises the whole FSM loop, not just the typed-failure exits; designs
// with partial redundancy (SD) turn the unrecoverable fraction into typed
// partition-lost failures instead.
func ResilienceSoak(p Params) (*Report, error) {
	t := tpch.Generate(p.SF, p.Seed)
	vs, err := TPCHVariants(t, p.Parts)
	if err != nil {
		return nil, err
	}
	m, err := Materialize(vs["AllReplicated"], t.DB)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "soak", Title: "Cluster health-layer soak: fault schedules vs absorbed outcomes (AllReplicated)",
		Columns: []string{"queries", "ok", "typed_fail", "trips", "probes", "rebuilds", "rebuilt_rows"}}
	base := p.execOptions(t.DB.TotalRows())
	for _, sc := range soakScenarios {
		var queries, ok, typed int
		var trips, probes, rebuilds, rebuiltRows int64
		for s := 0; s < soakSchedulesPerScenario; s++ {
			seed := p.Seed + int64(s)
			cl := cluster.New(cluster.Options{
				Nodes: p.Parts, TripAfter: 3, CoolDownQueries: 1,
			})
			pol := sc.pol(seed, p.Parts)
			for _, q := range hedgeQueries {
				eopt := base
				eopt.Fault = pol
				eopt.Cluster = cl
				queries++
				_, err := runQuery(t, vs["AllReplicated"], m, q, plan.Options{}, p.Cost, eopt)
				switch {
				case err == nil:
					ok++
				case typedFailure(err):
					typed++
				default:
					cl.Close()
					return nil, fmt.Errorf("soak %s seed %d: untyped failure: %w", sc.name, seed, err)
				}
			}
			cl.WaitRebuilds()
			st := cl.Stats()
			trips += st.Trips
			probes += st.Probes
			rebuilds += st.Rebuilds
			rebuiltRows += st.RebuiltRows
			cl.Close()
		}
		r.Add(sc.name, float64(queries), float64(ok), float64(typed),
			float64(trips), float64(probes), float64(rebuilds), float64(rebuiltRows))
	}
	r.Notes = append(r.Notes,
		"every failure is typed (node-failed, shipment-failed, partition-lost, tripped): never silent partial results",
		"down+repair exercises the full FSM loop: trip, cool-down, probe, background rebuild, healthy")
	return r, nil
}
