package bench

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pref/internal/bulkload"
	"pref/internal/cluster"
	"pref/internal/engine"
	"pref/internal/fault"
	"pref/internal/plan"
	"pref/internal/serve"
	"pref/internal/testutil"
	"pref/internal/tpch"
	"pref/internal/value"
)

// serveQueries is the prepared-query mix of the serving soak: the same
// light/medium/heavy TPC-H trio the hedge sweep uses.
var serveQueries = []string{"Q1", "Q3", "Q6"}

// serveOracles computes the fault-free sorted result of every prepared
// query — the ground truth a soak success must match exactly.
func serveOracles(t *testing.T, th *tpch.TPCH, m *Materialized, v *Variant) map[string][]value.Tuple {
	t.Helper()
	oracles := make(map[string][]value.Tuple, len(serveQueries))
	for _, q := range serveQueries {
		rw, err := plan.Rewrite(th.Query(q), th.DB.Schema, v.Groups[0].Config, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Execute(rw, m.PDBs[0])
		if err != nil {
			t.Fatal(err)
		}
		res.SortRows()
		oracles[q] = res.Rows
	}
	return oracles
}

// TestServeSoak is the serving layer's chaos soak: seeded fault schedules
// × concurrent tenants × deadline mixes × a live write stream rolling
// epochs underneath. The contract checked for every single submission:
// a successful query is oracle-equal; a failed one carries a typed error.
// No third outcome, no leaked goroutine, clean under -race.
func TestServeSoak(t *testing.T) {
	schedules := 12
	if testing.Short() {
		schedules = 3
	}
	verifyLeaks := testutil.CheckGoroutineLeaks(t)
	p := DefaultParams()
	th := tpch.Generate(p.SF, p.Seed)
	// AllReplicated, as in the resilience soak: a flaky or tripped node
	// is always recoverable from replicas, so oracle-equality stays
	// reachable under every schedule (SD partition loss is its own test).
	vs, err := TPCHVariants(th, p.Parts)
	if err != nil {
		t.Fatal(err)
	}
	v := vs["AllReplicated"]

	var totals struct {
		ok, failed, rejected, deadline, epochRolls, cacheMisses int64
	}
	for sch := 0; sch < schedules; sch++ {
		// Fresh partitioned data per schedule: the write stream below
		// mutates it.
		m, err := Materialize(v, th.DB)
		if err != nil {
			t.Fatal(err)
		}
		oracles := serveOracles(t, th, m, v)

		// Sweep the storm intensity with the schedule index: crash-free,
		// moderate, and storm-grade schedules, half with a terminally
		// flaky node.
		seed := int64(9000 + sch)
		crash := float64(sch%3) * 0.15
		var flaky map[int]int
		if sch%2 == 1 {
			flaky = map[int]int{sch % p.Parts: 99}
		}
		s, err := serve.NewServer(serve.Options{
			PDB:    m.PDBs[0],
			Config: v.Groups[0].Config,
			Queries: func() map[string]func() plan.Node {
				qs := make(map[string]func() plan.Node)
				for _, q := range serveQueries {
					q := q
					qs[q] = func() plan.Node { return th.Query(q) }
				}
				return qs
			}(),
			Tenants: []serve.TenantConfig{
				{Name: "gold", Weight: 4},
				{Name: "silver", Weight: 2},
				{Name: "bronze", Weight: 1, Rate: 500, Burst: 30},
			},
			MaxConcurrent: 6,
			QueueTimeout:  100 * time.Millisecond,
			ShedThreshold: 1.5,
			MaxAttempts:   3,
			Cluster:       cluster.Options{Nodes: p.Parts, TripAfter: 3, CoolDownQueries: 1},
			FaultFor: func(seq int64, attempt int) *fault.Policy {
				return &fault.Policy{
					Seed:      seed + seq*31 + int64(attempt)*7,
					CrashProb: crash, StragglerProb: crash / 2, StragglerDelay: 2 * time.Millisecond,
					FlakyNodes: flaky,
				}
			},
		})
		if err != nil {
			t.Fatal(err)
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
			l := bulkload.NewLoader(m.PDBs[0], v.Groups[0].Config)
			for i := 0; ; i++ {
				select {
				case <-writerStop:
					return
				case <-time.After(5 * time.Millisecond):
				}
				key := int64(1000 + sch*10000 + i)
				if err := l.Insert("region", value.Tuple{key, key, key}); err != nil {
					t.Errorf("schedule %d: write stream: %v", sch, err)
					return
				}
				rolls.Add(1)
			}
		}()

		deadlines := []time.Duration{0, 0, 400 * time.Millisecond, 40 * time.Millisecond, 8 * time.Millisecond}
		tenants := []string{"gold", "silver", "bronze"}
		workers := 6
		perWorker := 15
		var wg sync.WaitGroup
		errs := make(chan error, workers*perWorker)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(w)*101))
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
					if err != nil {
						if !typedFailure(err) {
							errs <- err
						}
						continue
					}
					rows := append([]value.Tuple(nil), resp.Rows...)
					sorted := &engine.Result{Rows: rows}
					sorted.SortRows()
					if !reflect.DeepEqual(sorted.Rows, oracles[query]) {
						errs <- fmt.Errorf("%s rows diverge from oracle (epoch %d)", query, resp.Epoch)
					}
				}
			}(w)
		}
		wg.Wait()
		close(writerStop)
		writerDone.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("schedule %d: %v", sch, err)
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatalf("schedule %d: close: %v", sch, err)
		}
		met := s.Metrics()
		if met.Completed+met.Failed+met.DeadlineExceeded+sumRejected(met.Rejected) != met.Submitted {
			t.Fatalf("schedule %d: outcome accounting leak: %+v", sch, met)
		}
		totals.ok += met.Completed
		totals.failed += met.Failed
		totals.deadline += met.DeadlineExceeded
		totals.rejected += sumRejected(met.Rejected)
		totals.epochRolls += rolls.Load()
		totals.cacheMisses += met.PlanCacheMisses
	}
	if totals.ok == 0 {
		t.Fatal("soak produced zero successful queries")
	}
	if totals.epochRolls == 0 {
		t.Fatal("write stream never rolled an epoch")
	}
	// The plan cache keys on the query alone: each schedule's server
	// rewrites each prepared query exactly once, however many epochs roll
	// and however many submissions race for the first plan.
	if want := int64(schedules * len(serveQueries)); totals.cacheMisses != want {
		t.Fatalf("plan cache missed %d times across %d epoch rolls, want exactly %d (one per query per schedule)",
			totals.cacheMisses, totals.epochRolls, want)
	}
	t.Logf("soak: %d schedules, ok=%d failed=%d deadline=%d rejected=%d, %d epoch rolls, %d plan-cache misses",
		schedules, totals.ok, totals.failed, totals.deadline, totals.rejected, totals.epochRolls, totals.cacheMisses)
	verifyLeaks()
}

func sumRejected(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}
