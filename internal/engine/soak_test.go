package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"pref/internal/batch"
	"pref/internal/cluster"
	"pref/internal/engine"
	"pref/internal/fault"
	"pref/internal/serve"
	"pref/internal/testutil"
	"pref/internal/trace"
	"pref/internal/value"
)

// TestSoak is the one seeded soak harness: three workloads hold PREF's
// recovery (§2.1, §3) and the bulk loader's write path (§2.3) to
// "oracle-equal or a typed error" under seeded faults. read runs seven
// queries concurrently against one cluster health layer per fault schedule
// (soak_test.go); write races a crash-injected write stream against pinned
// readers (soak_write_test.go); serve drives tenants, deadlines and faults
// through a server while a writer rolls epochs (soak_serve_test.go).
//
// soakSeeds runs each workload one subtest per seed and owns what they
// share: the outcome rule (soakRun.outcome), the per-seed pool drain and
// goroutine-leak checks, the one line that replays a failed seed, and the
// reach verdict over the full seed set. A workload brings its fixtures, its
// schedule for a seed, its error classes and the paths it must reach.
func TestSoak(t *testing.T) {
	for _, w := range []soakWorkload{readSoak, writeSoak, serveSoak} {
		t.Run(w.name, func(t *testing.T) { soakSeeds(t, w) })
	}
}

// soakWorkload is one soak: seeds first, first+1, … (short of them under
// -short), the errors a failed submission may wrap, the paths some seed
// must reach, and setup, which builds the fixtures once and returns what
// runs one seed.
type soakWorkload struct {
	name         string
	first        int64
	seeds, short int
	classes      []error
	paths        []string
	setup        func(t *testing.T) func(r *soakRun)
}

// faultClasses are the typed ways a query fails under injected faults.
// *fault.PartitionLostError unwraps to fault.ErrPartitionLost.
var faultClasses = []error{
	fault.ErrPartitionLost, fault.ErrNodeFailed, fault.ErrShipmentFailed,
	cluster.ErrNodeTripped, engine.ErrAllNodesDown,
}

// readClasses adds the deadline the read schedules' 5 ms Timeout produces
// (engine.ErrDeadlineExceeded wraps context.DeadlineExceeded).
var readClasses = append([]error{context.DeadlineExceeded}, faultClasses...)

// serveClasses adds every rung of the admission ladder (each
// *serve.RejectedError unwraps to one of these), a client's deadline and
// its cancellation.
var serveClasses = append([]error{
	serve.ErrQuotaExceeded, serve.ErrOverloaded, serve.ErrAdmissionTimeout, serve.ErrServerClosed,
	context.DeadlineExceeded, context.Canceled,
}, faultClasses...)

// soakRun is one seed's run: the seed's subtest, the seed, its index i in
// the seed set, and the paths the run reached. Its methods are safe for
// concurrent use.
type soakRun struct {
	*testing.T
	seed    int64
	i       int
	classes []error
	mu      sync.Mutex
	reached map[string]int64
}

// reach counts n visits of path.
func (r *soakRun) reach(path string, n int64) {
	r.mu.Lock()
	r.reached[path] += n
	r.mu.Unlock()
}

// outcome applies the outcome rule to one submission: res (rows sorted)
// equals want, or err wraps one of the workload's classes. Anything else
// fails the seed. It reports whether the submission kept the rule.
func (r *soakRun) outcome(what string, res *engine.Result, err error, want []value.Tuple) bool {
	switch {
	case err == nil && reflect.DeepEqual(res.Rows, want):
		r.reach("oracle-equal", 1)
	case err == nil:
		r.Errorf("%s: %d rows differ from the oracle's %d: %.300s", what, len(res.Rows), len(want), fmt.Sprint(res.Rows, " want ", want))
		return false
	case isOneOf(err, r.classes):
		r.reach("typed", 1)
	default:
		r.Errorf("%s: untyped failure: %v", what, err)
		return false
	}
	return true
}

// isOneOf reports whether err wraps one of classes.
func isOneOf(err error, classes []error) bool {
	for _, c := range classes {
		if errors.Is(err, c) {
			return true
		}
	}
	return false
}

// soakSeeds runs w one subtest per seed, in order, and stops at the first
// failed seed after printing the command that replays it alone. Each seed
// must return every pooled batch it took and leak no goroutine. When the
// full seed set ran, each of w's paths must have been reached by some seed.
func soakSeeds(t *testing.T, w soakWorkload) {
	run := w.setup(t)
	n := w.seeds
	if testing.Short() {
		n = w.short
	}
	reached := map[string]int64{}
	ran := 0
	for i := 0; i < n; i++ {
		seed := w.first + int64(i)
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ran++
			defer func() {
				if t.Failed() {
					t.Logf("replay: go test ./internal/engine -run '^TestSoak$/^%s$/^seed=%d$' -count=1", w.name, seed)
				}
			}()
			verifyLeaks := testutil.CheckGoroutineLeaks(t)
			pooled := batch.Outstanding() // 0 unless an earlier test leaked
			r := &soakRun{T: t, seed: seed, i: i, classes: w.classes, reached: map[string]int64{}}
			run(r)
			if d := batch.Outstanding() - pooled; d != 0 {
				t.Fatalf("%d pooled columns were never released", d)
			}
			verifyLeaks()
			for p, c := range r.reached {
				reached[p] += c
			}
		})
		if !ok {
			return
		}
	}
	if ran < w.seeds { // -short or a -run that picks seeds
		t.Logf("%d of %d seeds ran: reach verdict skipped", ran, w.seeds)
		return
	}
	paths := make([]string, 0, len(reached))
	for p, c := range reached {
		paths = append(paths, fmt.Sprintf("%s=%d", p, c))
	}
	sort.Strings(paths)
	t.Logf("%d seeds reached %s", n, strings.Join(paths, " "))
	for _, p := range w.paths {
		if reached[p] == 0 {
			t.Errorf("no seed reached %s", p)
		}
	}
}

// readSoak runs 200 randomized fault schedules (soakPolicy), each executing
// seven queries concurrently against one shared cluster health layer,
// hedging on every third schedule. The breaker must trip and probe, hedges
// must launch and win, units must fail over, lost partitions must be
// rebuilt from copies, and each target that reads through an index must,
// in some schedule, read one partition through it beside a lost one
// rebuilt and read whole.
var readSoak = soakWorkload{
	name: "read", first: 1000, seeds: 200, short: 20,
	classes: readClasses,
	paths: []string{"oracle-equal", "typed", "breaker-trip", "half-open-probe", "hedge", "hedge-win",
		"failover", "recovered-row", "index-beside-rebuilt:keyed-self-join/pref", "index-beside-rebuilt:range-agg/pref"},
	setup: readSetup,
}

// readTarget is one query of the read soak on its design: its fault-free
// rows, and the kind of the span above a scan that reads through an index,
// or "" for a target that reads none.
type readTarget struct {
	name  string
	run   func(testing.TB, engine.ExecOptions) (*engine.Result, error)
	want  []value.Tuple
	index trace.Kind
}

func readSetup(t *testing.T) func(*soakRun) {
	db, cfgs := engine.FaultDB(t), engine.FaultConfigs(4)
	var targets []readTarget
	for _, pick := range []struct {
		query, cfg string
		dates      bool // a query of DateQueries over DateDB
		// index is what reads through an index, if anything: such a
		// target is rewritten with statistics.
		index trace.Kind
	}{
		{"filter-project", "classical", false, ""},
		{"fig3-agg", "pref-chain", false, ""},
		{"semi", "classical", false, ""},
		{"three-way-agg", "pref-chain", false, ""},
		{"global-agg", "all-hashed", false, ""},
		// A shipped filter reads PREF orders through their key index, and
		// a lost node's partition is rebuilt and read whole.
		{"keyed-self-join", "pref", true, trace.KindRuntimeFilter},
		// A date filter reads PREF orders through its date index, and a
		// lost node's partition is rebuilt and read whole.
		{"range-agg", "pref", true, trace.KindFilter},
	} {
		var run func(testing.TB, engine.ExecOptions) (*engine.Result, error)
		if pick.dates {
			run = engine.Prepare(t, engine.DateQueries()[pick.query], engine.DateDB(t), engine.DateConfigs()[pick.cfg], pick.index != "")
		} else {
			run = engine.Prepare(t, engine.FaultQueries()[pick.query], db, cfgs[pick.cfg], pick.index != "")
		}
		clean, err := run(t, engine.ExecOptions{Trace: true})
		if err != nil {
			t.Fatalf("%s/%s oracle: %v", pick.query, pick.cfg, err)
		}
		if pick.index != "" && indexReads(clean.Trace, pick.index, false) == 0 {
			t.Fatalf("%s/%s: fixture drift: no scan under a %s read through an index", pick.query, pick.cfg, pick.index)
		}
		targets = append(targets, readTarget{pick.query + "/" + pick.cfg, run, clean.Rows, pick.index})
	}
	return func(r *soakRun) {
		copt := cluster.Options{Nodes: 4, TripAfter: 3, CoolDownQueries: 1}
		if r.i%3 == 0 {
			copt.Hedge = cluster.HedgePolicy{Enabled: true, MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond}
		}
		cl := cluster.New(copt)
		defer cl.Close()
		pol := soakPolicy(r.seed)
		var wg sync.WaitGroup
		for _, tg := range targets {
			wg.Add(1)
			go func(tg readTarget) {
				defer wg.Done()
				res, err := tg.run(r.T, engine.ExecOptions{Fault: pol, Cluster: cl, Trace: tg.index != ""})
				if !r.outcome(tg.name, res, err, tg.want) || err != nil {
					return
				}
				r.reach("hedge", int64(res.Stats.Hedges))
				r.reach("hedge-win", int64(res.Stats.HedgeWins))
				r.reach("failover", int64(res.Stats.Failovers))
				r.reach("recovered-row", res.Stats.RecoveredRows)
				if tg.index != "" {
					r.reach("index-beside-rebuilt:"+tg.name, int64(indexReads(res.Trace, tg.index, true)))
				}
			}(tg)
		}
		wg.Wait()
		st := cl.Stats()
		r.reach("breaker-trip", st.Trips)
		r.reach("half-open-probe", st.Probes)
	}
}

// soakPolicy derives one randomized fault schedule from a seed.
func soakPolicy(seed int64) *fault.Policy {
	rng := rand.New(rand.NewSource(seed))
	pol := &fault.Policy{
		Seed:           seed,
		CrashProb:      0.15 * rng.Float64(),
		ShipFailProb:   0.10 * rng.Float64(),
		StragglerProb:  0.05,
		StragglerDelay: time.Duration(50+rng.Intn(200)) * time.Microsecond,
		MaxAttempts:    4 + rng.Intn(4),
	}
	switch rng.Intn(4) {
	case 0:
		pol.FlakyNodes = map[int]int{rng.Intn(4): 1 + rng.Intn(6)}
	case 1:
		n := rng.Intn(4)
		pol.DownNodes = []int{n}
		if rng.Intn(2) == 0 {
			pol.RepairAfterProbes = map[int]int{n: 1 + rng.Intn(2)}
		}
	}
	if rng.Intn(8) == 0 {
		pol.Timeout = 5 * time.Millisecond
	}
	return pol
}

// indexReads counts the scans of tr directly under a span of kind k that
// read through an index; with rebuilt, only those that also rebuilt a lost
// partition from its copies.
func indexReads(tr *trace.Trace, k trace.Kind, rebuilt bool) int {
	n := 0
	tr.Walk(func(ot *trace.OpTrace) {
		for _, c := range ot.Children {
			if ot.Kind == k && c.Kind == trace.KindScan && c.Totals.IndexProbes > 0 && (!rebuilt || c.Totals.RecoveredRows > 0) {
				n++
			}
		}
	})
	return n
}
