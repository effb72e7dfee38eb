package engine_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pref/internal/bench"
	"pref/internal/bulkload"
	"pref/internal/cluster"
	"pref/internal/engine"
	"pref/internal/fault"
	"pref/internal/plan"
	"pref/internal/serve"
	"pref/internal/tpch"
	"pref/internal/value"
)

// serveSoak is the serving layer's soak: seeded fault schedules ×
// concurrent tenants × a deadline mix × a live write stream rolling epochs
// underneath. Each server rewrites each prepared query exactly once however
// many epochs roll, and its outcome accounting balances. Successes,
// execution failures, deadline kills, bronze's quota rejections (burst 3
// against 30 submissions a schedule: the ladder's first rung) and epoch
// rolls must all happen. The shed and queue-timeout rungs are not reached
// here (DESIGN.md, "Serving").
var serveSoak = soakWorkload{
	name: "serve", first: 9000, seeds: 12, short: 3,
	classes: serveClasses,
	paths:   []string{"oracle-equal", "typed", "failed", "deadline-kill", "rejected:quota", "epoch-roll"},
	setup:   serveSetup,
}

// serveQueries is the prepared-query mix of the serving soak: the same
// light/medium/heavy TPC-H trio the hedge sweep uses.
var serveQueries = []string{"Q1", "Q3", "Q6"}

func serveSetup(t *testing.T) func(*soakRun) {
	p := bench.DefaultParams()
	// Four partitions, not the default ten: the soak is CPU-bound on Q1's
	// aggregation over every replica, and four nodes still exercise every
	// outcome class while keeping the test inside the tier-1 budget.
	p.Parts = 4
	th := tpch.Generate(p.SF, p.Seed)
	// AllReplicated: a flaky or tripped node is always recoverable from
	// replicas, so oracle-equality stays reachable under every schedule
	// (SD partition loss is its own test).
	vs, err := bench.TPCHVariants(th, p.Parts)
	if err != nil {
		t.Fatal(err)
	}
	v := vs["AllReplicated"]
	cfg := v.Groups[0].Config
	queries := make(map[string]func() plan.Node)
	for _, q := range serveQueries {
		queries[q] = func() plan.Node { return th.Query(q) }
	}

	return func(r *soakRun) {
		// Fresh partitioned data per schedule: the write stream below
		// mutates it.
		m, err := bench.Materialize(v, th.DB)
		if err != nil {
			r.Fatal(err)
		}
		pdb := m.PDBs[0]
		// The fault-free sorted result of every prepared query: the ground
		// truth a success must match exactly.
		oracles := make(map[string][]value.Tuple, len(serveQueries))
		for _, q := range serveQueries {
			rw, err := plan.Rewrite(th.Query(q), th.DB.Schema, cfg, plan.Options{})
			if err != nil {
				r.Fatal(err)
			}
			res, err := engine.ExecuteCtx(context.Background(), rw, pdb, engine.ExecOptions{})
			if err != nil {
				r.Fatal(err)
			}
			res.SortRows()
			oracles[q] = res.Rows
		}

		// Sweep the storm intensity with the seed's index: crash-free,
		// moderate, and storm-grade schedules, half with a terminally
		// flaky node.
		crash := float64(r.i%3) * 0.15
		var flaky map[int]int
		if r.i%2 == 1 {
			flaky = map[int]int{r.i % p.Parts: 99}
		}
		s, err := serve.NewServer(serve.Options{
			PDB:     pdb,
			Config:  cfg,
			Queries: queries,
			Tenants: []serve.TenantConfig{
				{Name: "gold", Weight: 4},
				{Name: "silver", Weight: 2},
				{Name: "bronze", Weight: 1, Rate: 2, Burst: 3},
			},
			MaxConcurrent: 6,
			QueueTimeout:  100 * time.Millisecond,
			ShedThreshold: 1.5,
			MaxAttempts:   3,
			Cluster:       cluster.Options{Nodes: p.Parts, TripAfter: 3, CoolDownQueries: 1},
			FaultFor: func(seq int64, attempt int) *fault.Policy {
				return &fault.Policy{
					Seed:      r.seed + seq*31 + int64(attempt)*7,
					CrashProb: crash, StragglerProb: crash / 2, StragglerDelay: 2 * time.Millisecond,
					FlakyNodes: flaky,
				}
			},
		})
		if err != nil {
			r.Fatal(err)
		}

		// A live write stream rolling the published epoch under the soak:
		// inserts into region, which no prepared query reads, so every
		// oracle stays valid across epochs while the plan cache keeps
		// serving the plans it built at the first one.
		writerStop := make(chan struct{})
		var writerDone sync.WaitGroup
		var rolls atomic.Int64
		writerDone.Add(1)
		go func() {
			defer writerDone.Done()
			l := bulkload.NewLoader(pdb, cfg)
			for i := 0; ; i++ {
				select {
				case <-writerStop:
					return
				case <-time.After(5 * time.Millisecond):
				}
				key := int64(1000 + r.i*10000 + i)
				if err := l.Insert("region", value.Tuple{key, key, key}); err != nil {
					r.Errorf("write stream: %v", err)
					return
				}
				rolls.Add(1)
			}
		}()

		deadlines := []time.Duration{0, 0, 400 * time.Millisecond, 40 * time.Millisecond, 8 * time.Millisecond}
		tenants := []string{"gold", "silver", "bronze"}
		const workers, perWorker = 6, 15
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(r.seed + int64(w)*101))
				tenant := tenants[w%len(tenants)]
				for i := 0; i < perWorker; i++ {
					query := serveQueries[rng.Intn(len(serveQueries))]
					ctx := context.Background()
					cancel := func() {}
					if d := deadlines[rng.Intn(len(deadlines))]; d > 0 {
						ctx, cancel = context.WithTimeout(ctx, d)
					}
					resp, err := s.Submit(ctx, tenant, query)
					cancel()
					var res *engine.Result
					if err == nil {
						res = &engine.Result{Rows: append([]value.Tuple(nil), resp.Rows...)}
						res.SortRows()
					}
					r.outcome(query, res, err, oracles[query])
				}
			}(w)
		}
		wg.Wait()
		close(writerStop)
		writerDone.Wait()
		if err := s.Close(context.Background()); err != nil {
			r.Fatalf("close: %v", err)
		}
		met := s.Metrics()
		var rejected int64
		for stage, n := range met.Rejected {
			rejected += n
			r.reach("rejected:"+stage, n)
		}
		if met.Completed+met.Failed+met.DeadlineExceeded+rejected != met.Submitted {
			r.Fatalf("outcome accounting leak: %+v", met)
		}
		// The plan cache keys on the query alone: the server rewrites each
		// prepared query exactly once, however many epochs roll and however
		// many submissions race for the first plan.
		if met.PlanCacheMisses != int64(len(serveQueries)) {
			r.Fatalf("plan cache missed %d times across %d epoch rolls, want exactly %d (one per query)",
				met.PlanCacheMisses, rolls.Load(), len(serveQueries))
		}
		r.reach("failed", met.Failed)
		r.reach("deadline-kill", met.DeadlineExceeded)
		r.reach("epoch-roll", rolls.Load())
	}
}
