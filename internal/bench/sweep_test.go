package bench

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"pref/internal/batch"
	"pref/internal/engine"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/tpch"
	"pref/internal/trace"
	"pref/internal/value"
)

// The TPC-H plan sweep. Each fixture below is one TPC-H database, at one
// scale and seed, partitioned over some nodes by each §5.1 variant of
// tpchVariantTable. A fixture is built once per package run, when a test
// first reads it: each dataset is generated once and its 22 queries
// answered on one node once, and each variant is designed and
// materialized once. Every (variant, query, options) case is rewritten
// once without statistics and once with the statistics of the database it
// runs on, and executed once under the static checker and the runtime
// verifier, traced; a priced plan equal to the unpriced one reuses its
// execution. The tests in this file are properties of those runs: a
// rewrite change adds a property here, not another sweep.

// dataset is one generated TPC-H database.
type dataset struct {
	sf   float64
	seed int64
}

// fixture is a dataset partitioned over nodes.
type fixture struct {
	dataset
	nodes int
}

var (
	// microFx is where the plan-shape pins live, and where every plan also
	// runs a second time, plain.
	microFx = fixture{dataset{0.002, 7}, 4}
	// mixFx holds the benchmark's query mixes at sf 0.01.
	mixFx = fixture{dataset{0.01, 42}, 4}
	// fig7Fx is Figure 7's cluster.
	fig7Fx = fixture{dataset{0.01, 42}, 10}
	// benchFx is the benchmark's scale and cluster.
	benchFx      = fixture{dataset{0.05, 42}, 4}
	tpchFixtures = []fixture{microFx, mixFx, fig7Fx, benchFx}
	// joinMix is the benchmark's join_pref and join_hashed query mix.
	joinMix = []string{"Q3", "Q5", "Q7", "Q10", "Q12", "Q18", "Q21"}
)

// sweepRun is one query of one variant, rewritten without statistics or
// with them. A priced run whose plan equals the unpriced one is a copy of
// it: the two share rw and res.
type sweepRun struct {
	fixture
	variant, query string
	stats          bool
	rw             *plan.Rewritten
	res            *engine.Result // checked, verified and traced; rows sorted
	sim            time.Duration
	plain          *engine.Result // microFx only: the plan executed again, plain; rows sorted
}

func (r *sweepRun) String() string {
	return fmt.Sprintf("sf %v/%d nodes/%s/%s (stats %v)", r.sf, r.nodes, r.variant, r.query, r.stats)
}

type runKey struct {
	variant, query string
	stats          bool
}

// sweep is every run of one fixture.
type sweep struct {
	fixture
	refs    map[string][]value.Tuple // each query's sorted rows on one node
	logical map[string]plan.Node     // each query's logical plan
	runs    []*sweepRun              // by variant, query, unpriced first
	byKey   map[runKey]*sweepRun
}

func (s *sweep) run(variant, query string, stats bool) *sweepRun {
	return s.byKey[runKey{variant, query, stats}]
}

var (
	sweepMu sync.Mutex
	sweeps  = map[fixture]*sweep{}
	built   = map[dataset]error{} // each built dataset's error
)

// sweepOf returns the runs of fx, building every fixture of its dataset on
// first use.
func sweepOf(t *testing.T, fx fixture) *sweep {
	t.Helper()
	sweepMu.Lock()
	defer sweepMu.Unlock()
	err, done := built[fx.dataset]
	if !done {
		err = buildDataset(fx.dataset)
		built[fx.dataset] = err
	}
	if err != nil {
		t.Fatal(err)
	}
	return sweeps[fx]
}

func allSweeps(t *testing.T) []*sweep {
	t.Helper()
	out := make([]*sweep, len(tpchFixtures))
	for i, fx := range tpchFixtures {
		out[i] = sweepOf(t, fx)
	}
	return out
}

// placed is one variant designed and materialized for a fixture.
type placed struct {
	fixture
	v   *Variant
	m   *Materialized
	err error
}

func buildDataset(ds dataset) error {
	d := tpch.Generate(ds.sf, ds.seed)
	// Designing and materializing take no pooled batch, so one goroutine
	// runs them a variant ahead of the executions. The executions run one at
	// a time: the pool balance after each one names the run that leaked.
	ready := make(chan placed)
	go func() {
		defer close(ready)
		place := func(fx fixture, name string) {
			p := placed{fixture: fx}
			if p.v, p.err = TPCHVariant(d, fx.nodes, name); p.err == nil {
				p.m, p.err = Materialize(p.v, d.DB)
			}
			ready <- p
		}
		place(fixture{ds, 1}, "AllReplicated") // the single-node reference
		for _, fx := range tpchFixtures {
			if fx.dataset != ds {
				continue
			}
			for _, c := range tpchVariantTable {
				place(fx, c.name)
			}
		}
	}()
	defer func() {
		for range ready { // after an error, let the goroutine finish
		}
	}()
	one := <-ready
	if one.err != nil {
		return one.err
	}
	refs := map[string][]value.Tuple{}
	logical := map[string]plan.Node{}
	for _, query := range tpch.QueryNames {
		logical[query] = d.Query(query)
		rw, err := plan.Rewrite(d.Query(query), d.DB.Schema, one.v.Groups[0].Config, plan.Options{})
		if err != nil {
			return fmt.Errorf("sf %v/%s on one node: rewrite: %w", ds.sf, query, err)
		}
		res, err := execute(rw, one.m.PDBs[0], engine.ExecOptions{})
		if err != nil {
			return fmt.Errorf("sf %v/%s on one node: %w", ds.sf, query, err)
		}
		refs[query] = res.Rows
	}
	for p := range ready {
		if p.err != nil {
			return p.err
		}
		s := sweeps[p.fixture]
		if s == nil {
			s = &sweep{fixture: p.fixture, refs: refs, logical: logical, byKey: map[runKey]*sweepRun{}}
			sweeps[p.fixture] = s
		}
		if err := s.runVariant(d, p.v, p.m); err != nil {
			return err
		}
	}
	return nil
}

// runVariant runs every query on one materialized variant.
func (s *sweep) runVariant(d *tpch.TPCH, v *Variant, m *Materialized) error {
	stats := m.GroupStats()
	for _, query := range tpch.QueryNames {
		gi := v.RouteFor(query)
		var unpriced *sweepRun
		for _, opt := range []plan.Options{{}, {Stats: stats[gi]}} {
			r := &sweepRun{fixture: s.fixture, variant: v.Name, query: query, stats: opt.Stats != nil}
			var err error
			if r.rw, err = plan.Rewrite(d.Query(query), d.DB.Schema, v.Groups[gi].Config, opt); err != nil {
				return fmt.Errorf("%v: rewrite: %w", r, err)
			}
			if r.stats && r.rw.Explain() == unpriced.rw.Explain() {
				*r = *unpriced // the same plan
				r.stats = true
			} else if err := r.execute(m.PDBs[gi]); err != nil {
				return err
			}
			unpriced = r
			s.runs = append(s.runs, r)
			s.byKey[runKey{v.Name, query, r.stats}] = r
		}
	}
	return nil
}

// execute runs r's plan under the static checker (check.Verify) and the
// runtime verifier, traced.
func (r *sweepRun) execute(pdb *table.PartitionedDatabase) error {
	var err error
	if r.res, err = execute(r.rw, pdb, engine.ExecOptions{Verify: true, Trace: true}); err != nil {
		return fmt.Errorf("%v: %w\n%s", r, err, r.rw.Explain())
	}
	r.sim = engine.DefaultCostModel().Simulate(r.res.Stats)
	if r.fixture == microFx {
		if r.plain, err = execute(r.rw, pdb, engine.ExecOptions{}); err != nil {
			return fmt.Errorf("%v, plain: %w", r, err)
		}
	}
	return nil
}

// execute runs a plan, sorts its rows, and holds the batch pool to balance.
func execute(rw *plan.Rewritten, pdb *table.PartitionedDatabase, opt engine.ExecOptions) (*engine.Result, error) {
	res, err := engine.ExecuteCtx(context.Background(), rw, pdb, opt)
	if err != nil {
		return nil, err
	}
	if n := batch.Outstanding(); n != 0 {
		return nil, fmt.Errorf("%d pooled columns were never released", n)
	}
	res.SortRows()
	return res, nil
}

// TestDifferentialTPCH: every design variant answers what one node
// answers. Each query's sorted rows under every variant, rewritten without
// statistics and with them, equal the single-node rows at every fixture;
// at microFx every query has rows to compare. Variants differ wildly in how
// rows move, never in what they answer.
func TestDifferentialTPCH(t *testing.T) {
	all := allSweeps(t)
	for _, query := range tpch.QueryNames {
		t.Run(query, func(t *testing.T) {
			for _, s := range all {
				if s.fixture == microFx && len(s.refs[query]) == 0 {
					t.Errorf("%s returns no rows at sf %v", query, s.sf)
				}
				for _, r := range s.runs {
					if want := s.refs[query]; r.query == query && !reflect.DeepEqual(r.res.Rows, want) {
						t.Errorf("%v: %d rows differ from single-node execution's %d\n%s",
							r, len(r.res.Rows), len(want), r.rw.Explain())
					}
				}
			}
		})
	}
}

// TestVecRowOracleTPCH is the half of the TPC-H row/batch oracle that needs
// no reference: at microFx every plan runs twice on the product engine,
// plain and under the runtime verifier, and must agree with itself — same
// rows, same Stats — with every operator's recorded cells passing
// check.VerifyTrace. Most of these plans hand an aggregate's output batches
// to another operator (partial states repartitioned, aggregates joined and
// filtered), and the trace conservation laws are what a hand-off that
// dropped or repeated a row would break. The pool balance holds after every
// execution of the sweep (execute). The comparison against the row
// reference is internal/engine's TestVecRowOracleTPCH: only the engine's
// own tests can reach the reference.
func TestVecRowOracleTPCH(t *testing.T) {
	s := sweepOf(t, microFx)
	for _, query := range tpch.QueryNames {
		t.Run(query, func(t *testing.T) {
			for _, r := range s.runs {
				if r.query != query {
					continue
				}
				if !reflect.DeepEqual(r.plain.Rows, r.res.Rows) {
					t.Errorf("%v: two executions diverge: %d vs %d rows", r, len(r.plain.Rows), len(r.res.Rows))
				}
				if r.plain.Stats != r.res.Stats || r.res.Trace.Totals != r.res.Stats {
					t.Errorf("%v: stats diverge:\nplain    %+v\nverified %+v\ntrace    %+v",
						r, r.plain.Stats, r.res.Stats, r.res.Trace.Totals)
				}
			}
		})
	}
}

// TestHiddenColumnsNeverShipTPCH is the invariant pruning establishes for
// the PREF index columns: dup columns are consumed by the dedup before a
// shipment and hasRef filters sit on base scans, so no exchange of any plan
// of the sweep records a hidden column. (The checker, whose dead-column
// rule re-derives liveness on its own, passes every plan: the sweep
// executes each one under it.)
func TestHiddenColumnsNeverShipTPCH(t *testing.T) {
	for _, s := range allSweeps(t) {
		for _, r := range s.runs {
			for _, n := range findPlan(r.rw.Root, isExchange) {
				for _, f := range r.rw.Schema(n) {
					if plan.IsHiddenCol(f.Name) {
						t.Errorf("%v: %s carries hidden column %s across a node boundary", r, n, f.Name)
					}
				}
			}
		}
	}
}

// TestPropsOwnedTPCH: the rewrite records a Prop of its own for every
// operator, so changing one operator's properties cannot change another's.
// In no plan of the sweep, SD and AllHashed among the variants, with and
// without statistics, do two operators hold the same Prop.
func TestPropsOwnedTPCH(t *testing.T) {
	plans := map[string]int{}
	for _, s := range allSweeps(t) {
		for _, r := range s.runs {
			holder := map[*plan.Prop]plan.Node{}
			for n, p := range r.rw.Props {
				if other, ok := holder[p]; ok {
					t.Errorf("%v: %s and %s hold the same Prop %v", r, other, n, p)
				}
				holder[p] = n
			}
			plans[r.variant]++
		}
	}
	for _, v := range []string{"SD", "AllHashed"} {
		if want := 2 * len(tpch.QueryNames); plans[v] < want {
			t.Errorf("fixture drift: %d %s plans, want at least %d", plans[v], v, want)
		}
	}
}

// TestExchangesShipRecordedWidthTPCH holds every exchange span of the sweep
// to its recorded schema: bytes shipped are rows shipped × 8 × the columns
// the rewrite recorded. The seven join queries of the benchmark's
// join_hashed workload, on the all-hashed design at microFx without
// statistics, ship in total less than a quarter of what the same rows would
// weigh unpruned. A rewriter or engine change that goes back to shipping
// full-width rows fails here.
func TestExchangesShipRecordedWidthTPCH(t *testing.T) {
	var pruned, unpruned int64
	for _, s := range allSweeps(t) {
		for _, r := range s.runs {
			sample := s.fixture == microFx && r.variant == "AllHashed" && !r.stats && slices.Contains(joinMix, r.query)
			exchanges := 0
			// The trace mirrors the plan under its synthetic Result root.
			var walk func(plan.Node, *trace.OpTrace)
			walk = func(n plan.Node, ot *trace.OpTrace) {
				if isExchange(n) {
					exchanges++
					m, width := ot.Totals, int64(len(r.rw.Schema(n)))
					if want := m.RowsShipped * 8 * width; m.BytesShipped != want {
						t.Errorf("%v: %s shipped %d B for %d rows, want %d (%d recorded columns)",
							r, n, m.BytesShipped, m.RowsShipped, want, width)
					}
					if sample {
						pruned += m.BytesShipped
						unpruned += m.RowsShipped * 8 * int64(unprunedWidth(r.rw, n))
					}
				}
				for i, c := range n.Children() {
					walk(c, ot.Children[i])
				}
			}
			walk(r.rw.Root, r.res.Trace.Root.Children[0])
			if sample && exchanges == 0 {
				t.Errorf("%v: fixture drift: no exchange on the all-hashed design:\n%s", r, r.rw.Explain())
			}
		}
	}
	if pruned == 0 || pruned*4 >= unpruned {
		t.Errorf("seven join queries shipped %d B, want under a quarter of the unpruned %d B", pruned, unpruned)
	}
}

// servedPlans pins the plans the benchmark and the figures serve: per
// fixture and variant, an FNV-1a digest of all 22 queries' priced plans,
// each query's name followed by its Rewritten.Explain(). SD and AllHashed
// at benchFx are join_pref's and join_hashed's designs, SD at mixFx is
// mixed_rw's, and fig7Fx runs every Figure 7 variant.
var servedPlans = map[string]string{
	"sf 0.05/4 nodes/SD":             "82f9f5a6234fcea5",
	"sf 0.05/4 nodes/AllHashed":      "f79a6b2ce05b534b",
	"sf 0.01/4 nodes/SD":             "8ee5e99336ea9fd4",
	"sf 0.01/10 nodes/AllHashed":     "78e0bcd0bb6bccc0",
	"sf 0.01/10 nodes/AllReplicated": "dc226b4c923ef918",
	"sf 0.01/10 nodes/CP":            "2cd888eeff38afa8",
	"sf 0.01/10 nodes/SD":            "6d582ccc3338aa02",
	"sf 0.01/10 nodes/SD-noRed":      "c11330a229b82d2b",
	"sf 0.01/10 nodes/SD-paper":      "5dcb088a4f2e1e23",
	"sf 0.01/10 nodes/WD":            "10bef857a13c7fff",
}

// TestServedPlansPinned: an engine change leaves every served plan as it
// was, byte for byte, and a rewrite change that moves one shows here. The
// plans are the sweep's priced runs, rewritten with the statistics
// plan.GatherStats reads of the database they run on.
func TestServedPlansPinned(t *testing.T) {
	got := map[string]string{}
	for _, fx := range []fixture{benchFx, mixFx, fig7Fx} {
		s := sweepOf(t, fx)
		digests := map[string]hash.Hash64{}
		for _, r := range s.runs {
			key := fmt.Sprintf("sf %v/%d nodes/%s", r.sf, r.nodes, r.variant)
			if _, pinned := servedPlans[key]; !pinned || !r.stats {
				continue
			}
			h := digests[key]
			if h == nil {
				h = fnv.New64a()
				digests[key] = h
			}
			fmt.Fprintf(h, "%s\n%s\n", r.query, r.rw.Explain())
		}
		for key, h := range digests {
			got[key] = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	for key, want := range servedPlans {
		if got[key] != want {
			t.Errorf("%s: plan digest %s, want %s", key, got[key], want)
		}
	}
}

// TestRuntimeFiltersTPCH holds the runtime-filter rule to what it promises:
// every filter of the sweep, shipped or local, drops rows, so the
// selectivity test places no dead filter. At mixFx without statistics, the
// benchmark's join mix places filters on the all-hashed design, and on SD,
// where PREF co-locates the joins, the join and scan mixes place none.
func TestRuntimeFiltersTPCH(t *testing.T) {
	for _, s := range allSweeps(t) {
		for _, r := range s.runs {
			for _, f := range filters(r.res) {
				if f.Totals.FilteredRows == 0 {
					t.Errorf("%v: %s dropped no row", r, f.Label)
				}
			}
		}
	}
	s := sweepOf(t, mixFx)
	placed := 0
	for _, query := range joinMix {
		placed += len(filters(s.run("AllHashed", query, false).res))
	}
	if placed == 0 {
		t.Error("AllHashed: the join mix placed no runtime filter")
	}
	for _, query := range slices.Concat(joinMix, []string{"Q1", "Q6", "Q15"}) {
		for _, f := range filters(s.run("SD", query, false).res) {
			t.Errorf("SD/%s: %s placed where PREF co-locates the joins", query, f.Label)
		}
	}
}

// filters returns the runtime filter spans of an execution.
func filters(res *engine.Result) []*trace.OpTrace {
	var out []*trace.OpTrace
	res.Trace.Walk(func(op *trace.OpTrace) {
		if op.Kind == trace.KindRuntimeFilter || op.Kind == trace.KindLocalFilter {
			out = append(out, op)
		}
	})
	return out
}

// TestEagerAggregationTPCH holds eager aggregation to where it pays, at
// microFx. Without statistics the gate counts exchanges: the all-hashed
// design keeps the eager Q3 and Q18, and SD, SD-noRed and WD keep the eager
// Q3, whose lineitem sums stay in place on its PREF placement while the lazy
// form repartitions for its aggregate. With statistics the gate prices both
// forms' simulated time, and every variant keeps the eager Q3 and Q18: the
// sums shrink lineitem before it meets orders. Nothing else has an eager
// form. At benchFx, on the design the benchmark serves, SD's eager Q3 and
// Q18 sum lineitem in place and start no exchange at all.
func TestEagerAggregationTPCH(t *testing.T) {
	s := sweepOf(t, microFx)
	plain := map[string]bool{"AllHashed/Q3": true, "AllHashed/Q18": true, "SD/Q3": true, "SD-noRed/Q3": true, "WD/Q3": true}
	for _, r := range s.runs {
		key := r.variant + "/" + r.query
		want := plain[key] || r.stats && (r.query == "Q3" || r.query == "Q18")
		if got := eagerAggregated(s.logical[r.query], r.rw.Root); got != want {
			t.Errorf("%v: eager form kept = %v, want %v\n%s", r, got, want, r.rw.Explain())
		}
	}
	served := sweepOf(t, benchFx)
	for _, query := range []string{"Q3", "Q18"} {
		r := served.run("SD", query, true)
		inPlace := findPlan(r.rw.Root, func(n plan.Node) bool { return r.rw.Props[n].Orphans == "l" })
		if !eagerAggregated(served.logical[query], r.rw.Root) || len(inPlace) == 0 {
			t.Errorf("%v: lineitem is not summed in place\n%s", r, r.rw.Explain())
		}
		for _, n := range findPlan(r.rw.Root, isExchange) {
			if _, result := n.(*plan.GatherNode); !result || n != r.rw.Root {
				t.Errorf("%v: %s below the result\n%s", r, n, r.rw.Explain())
			}
		}
	}
}

// eagerAggregated reports whether the physical plan aggregates by a
// group-by list that no aggregate of the logical query names: the sums of
// an eager form, grouped by its summed input's join key.
func eagerAggregated(logical, physical plan.Node) bool {
	named := map[string]bool{}
	walkPlan(logical, func(n plan.Node) {
		if a, ok := n.(*plan.AggregateNode); ok {
			named[fmt.Sprint(a.GroupBy)] = true
		}
	})
	eager := false
	walkPlan(physical, func(n plan.Node) {
		switch a := n.(type) {
		case *plan.AggregateNode:
			eager = eager || !named[fmt.Sprint(a.GroupBy)]
		case *plan.FinalAggNode:
			eager = eager || !named[fmt.Sprint(a.GroupBy)]
		}
	})
	return eager
}

// TestGroupedAggShipsPartialStatesTPCH guards the two-phase rewrite of
// grouped aggregation: on SD at microFx with statistics, the exchange under
// every final aggregate of Q1 and Q15, a repartition or a gather, ships
// nothing but per-partition partial states, and Q1, which merges its states
// at the coordinator, ships at most one state per group and remote node and
// no result row. A rewriter change that goes back to shipping every input
// row fails here.
func TestGroupedAggShipsPartialStatesTPCH(t *testing.T) {
	const q1Groups = 4
	s := sweepOf(t, microFx)
	for _, query := range []string{"Q1", "Q15"} {
		r := s.run("SD", query, true)
		fins := findPlan(r.rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.FinalAggNode); return ok })
		if len(fins) == 0 {
			t.Fatalf("%v: fixture drift: no final aggregate left to guard:\n%s", r, r.rw.Explain())
		}
		for _, n := range fins {
			x := n.(*plan.FinalAggNode).Child
			if !isExchange(x) || !isPartialAgg(x.Children()[0]) {
				t.Errorf("%v: %s merges %s, want an exchange of partial states only:\n%s", r, n, x, r.rw.Explain())
			}
		}
	}
	r := s.run("SD", "Q1", true)
	if max := int64((s.nodes - 1) * q1Groups); r.res.Stats.RowsShipped > max {
		t.Errorf("Q1 shipped %d rows, want at most %d ((n-1)·groups)", r.res.Stats.RowsShipped, max)
	}
}

// TestCoordinatorMergeTPCH: a grouped aggregate merges its partial states at
// the coordinator only with statistics, only under nothing but the root's
// projections and filters (never below a join, another aggregate or an
// exchange), and only where that was priced cheaper than repartitioning
// them. mixed_rw's Q4 and Q12 on SD at mixFx merge so. On the join mixes'
// designs at benchFx, Q7's 2 496 partial states are priced cheaper to
// repartition, and Q15's 1 987 feed a join: both keep their repartition.
func TestCoordinatorMergeTPCH(t *testing.T) {
	for _, s := range allSweeps(t) {
		for _, r := range s.runs {
			for _, f := range coordinatorMerges(r.rw.Root) {
				if !r.stats {
					t.Errorf("%v: %s merges at the coordinator without statistics\n%s", r, f, r.rw.Explain())
				}
				if !underRootOnly(r.rw.Root, f) {
					t.Errorf("%v: %s merges at the coordinator below a join, an aggregate or an exchange\n%s", r, f, r.rw.Explain())
				}
			}
		}
	}
	mix := sweepOf(t, mixFx)
	for _, query := range []string{"Q4", "Q12"} {
		if r := mix.run("SD", query, true); len(coordinatorMerges(r.rw.Root)) != 1 {
			t.Errorf("%v: want its partial states merged at the coordinator\n%s", r, r.rw.Explain())
		}
	}
	served := sweepOf(t, benchFx)
	for _, variant := range []string{"SD", "AllHashed"} {
		for _, query := range []string{"Q7", "Q15"} {
			r := served.run(variant, query, true)
			reps := findPlan(r.rw.Root, func(n plan.Node) bool { return groupedMergeOver[*plan.RepartitionNode](n) })
			if len(reps) == 0 || len(coordinatorMerges(r.rw.Root)) > 0 {
				t.Errorf("%v: want its grouped partial states repartitioned\n%s", r, r.rw.Explain())
			}
		}
	}
}

// coordinatorMerges returns the grouped final aggregates of the plan at n
// that merge gathered partial states.
func coordinatorMerges(n plan.Node) []plan.Node {
	return findPlan(n, groupedMergeOver[*plan.GatherNode])
}

// groupedMergeOver reports whether n is a grouped final aggregate whose
// input is an exchange of type X.
func groupedMergeOver[X plan.Node](n plan.Node) bool {
	f, ok := n.(*plan.FinalAggNode)
	if !ok || len(f.GroupBy) == 0 {
		return false
	}
	_, ok = f.Child.(X)
	return ok
}

// underRootOnly reports whether the path from root down to n crosses only
// projections and filters.
func underRootOnly(root, n plan.Node) bool {
	for x := root; x != n; {
		switch y := x.(type) {
		case *plan.ProjectNode:
			x = y.Child
		case *plan.FilterNode:
			x = y.Child
		default:
			return false
		}
	}
	return true
}

// TestNoRedundantRepartitionTPCH: no repartition of the sweep ships an input
// already hashed on its columns, position by position, modulo the input's
// column equivalences. An input with live PREF duplicates is the exception:
// the repartition removes them in transit.
func TestNoRedundantRepartitionTPCH(t *testing.T) {
	for _, s := range allSweeps(t) {
		for _, r := range s.runs {
			for _, n := range findPlan(r.rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.RepartitionNode); return ok }) {
				rep := n.(*plan.RepartitionNode)
				p := r.rw.Props[rep.Child]
				h := p.HashCols()
				if p.Dup() || len(h) != len(rep.Cols) {
					continue
				}
				aligned := true
				for i := range h {
					aligned = aligned && p.EquivSame(h[i], rep.Cols[i])
				}
				if aligned {
					t.Errorf("%v: %s ships an input already hashed on %v\n%s", r, rep, h, r.rw.Explain())
				}
			}
		}
	}
}

func isPartialAgg(n plan.Node) bool { _, ok := n.(*plan.PartialAggNode); return ok }

// TestPrunedExchangeSchemasQ3 pins, by hand, what each exchange of Q3
// carries on the all-hashed design at microFx without statistics: its hash
// keys and the columns read above it. The rewrite sums lineitem per order
// before the join with orders (eager aggregation), so lineitem ships one
// revenue per order and partition, and orders travels once, with those
// sums, to meet customer.
func TestPrunedExchangeSchemasQ3(t *testing.T) {
	rw := sweepOf(t, microFx).run("AllHashed", "Q3", false).rw
	want := map[string][]string{
		"Repartition(hash [o.custkey], dedup [])":  {"o.custkey", "o.orderdate", "o.shippriority", "l.orderkey", "revenue"},
		"Repartition(hash [l.orderkey], dedup [])": {"l.orderkey", "revenue"},
	}
	exchanges := findPlan(rw.Root, isExchange)
	seen := 0
	for _, n := range exchanges {
		cols, ok := want[n.String()]
		if !ok {
			continue
		}
		seen++
		if got := rw.Schema(n).Names(); !reflect.DeepEqual(got, cols) {
			t.Errorf("%s ships %v, want %v", n, got, cols)
		}
	}
	if seen != len(want) || len(exchanges) != len(want) {
		t.Fatalf("fixture drift: found %d of %d expected exchanges among %d:\n%s", seen, len(want), len(exchanges), rw.Explain())
	}
}

// TestBroadcastChoiceTPCH holds the estimator's broadcast choice to its
// promise at benchFx: with statistics the rewrite may broadcast an input of
// a misaligned join instead of re-partitioning, and no plan ships more
// bytes or takes more simulated time than the plan made without
// statistics, but for the listed exceptions. Every plan that changes is
// logged.
func TestBroadcastChoiceTPCH(t *testing.T) {
	// slower lists the plans whose simulated time may rise. AllHashed's Q20
	// broadcasts the one nation row instead of shipping ~20 suppliers to
	// that nation's node: it ships 160 B less and processes 14 rows less in
	// all, but its busiest node gets 20 more (+0.04 ms), a placement skew
	// the estimator does not model.
	slower := map[string]bool{"AllHashed/Q20": true}
	// The bytes the benchmark's join_hashed mix ships per query. A shipped
	// runtime filter ships each source partition's exact keys, sorted and
	// gap-encoded, and keeps exactly the rows whose key some source
	// partition holds, so Q5, Q10 and Q21 ship no row a false positive
	// would let through and fewer filter bytes than Bloom filters took.
	// Q3 re-partitions orders ⋈ Σ lineitem rather than broadcast customer:
	// the recorded gap between an order's date and its lineitems' ship
	// dates (plan.DateGap) prices that join at the orders of the 121 days
	// before its date bound, not at the half of all orders independent
	// bounds would keep.
	// A runtime filter from a broadcast source is local and ships nothing;
	// Q21's anti join with a residual is not estimated empty, so it
	// broadcasts nation. Q5's nation filter on s.nationkey forks onto
	// c.nationkey (c.nationkey = s.nationkey is a residual conjunct), so
	// customer, orders and lineitem reach their exchanges thinned to ASIA's
	// customers: 550 642 B before the fork.
	// Q5, Q12 and Q21 merge their few grouped partial states at the
	// coordinator, so no result rows travel home after them (127 642, 21 632
	// and 699 580 B before); Q21's semi join also leaves its left input,
	// hashed on l1.orderkey ≡ o.orderkey, where it is.
	pinned := map[string]int64{
		"Q3": 80441, "Q5": 127578, "Q7": 3607520, "Q10": 369883,
		"Q12": 21584, "Q18": 3990648, "Q21": 699276,
	}
	s := sweepOf(t, benchFx)
	for _, u := range s.runs {
		if u.stats {
			continue
		}
		name, query := u.variant, u.query
		key := name + "/" + query
		p := s.run(name, query, true)
		b0, b1 := u.res.Stats.BytesShipped, p.res.Stats.BytesShipped
		if u.rw != p.rw {
			t.Logf("%-16s bytes %9d -> %9d, sim %9.3f -> %9.3f ms", key, b0, b1, ms(u.sim), ms(p.sim))
		}
		if b1 > b0 {
			t.Errorf("%s ships more with statistics: %d -> %d B\n%s", key, b0, b1, p.rw.Explain())
		}
		if p.sim > u.sim && !slower[key] {
			t.Errorf("%s is slower with statistics: %v -> %v\n%s", key, u.sim, p.sim, p.rw.Explain())
		}
		if want, ok := pinned[query]; ok && name == "AllHashed" && b1 != want {
			t.Errorf("%s ships %d B, want %d", key, b1, want)
		}
		// The old size heuristic broadcast the join of customer and
		// orders here, which ships more than the repartitions it saves.
		if (query == "Q5" || query == "Q10") && name == "AllHashed" {
			for _, b := range findPlan(p.rw.Root, isBroadcast) {
				if scans(b, "customer") && scans(b, "orders") {
					t.Errorf("%s broadcasts customer ⋈ orders\n%s", key, p.rw.Explain())
				}
			}
		}
	}
}

// TestBroadcastChoiceTraps pins two plans that a cruder estimate gets
// wrong: join_hashed's Q21 on AllHashed at mixFx and SD-noRed's Q9 at
// fig7Fx are not slower with statistics — a broadcast build side is copied
// to every node, and its per-node rows must be priced as such.
func TestBroadcastChoiceTraps(t *testing.T) {
	for _, c := range []struct {
		fx             fixture
		variant, query string
	}{
		{mixFx, "AllHashed", "Q21"},
		{fig7Fx, "SD-noRed", "Q9"},
	} {
		s := sweepOf(t, c.fx)
		u, p := s.run(c.variant, c.query, false), s.run(c.variant, c.query, true)
		if p.sim > u.sim {
			t.Errorf("%v is slower with statistics: %v -> %v\n%s", p, u.sim, p.sim, p.rw.Explain())
		}
	}
}

// TestLocalFiltersTPCH: with statistics, a selective input of a join whose
// other input reaches it through no exchange filters that input in place.
// The sweep places at least one local filter at benchFx and at fig7Fx. On
// SD at benchFx, the benchmark's join_pref and mixed_rw mixes ship no more
// bytes and take no more simulated time than the plans made before local
// filters, pinned below, and Q21, whose one nation now filters its three
// lineitem scans, takes at most 700 ms.
func TestLocalFiltersTPCH(t *testing.T) {
	type cost struct {
		bytes int64
		simMs float64
	}
	before := map[string]cost{
		"Q3": {28480, 408.311840}, "Q4": {288, 388.768304}, "Q5": {304, 429.078432},
		"Q6": {24, 155.164192}, "Q7": {74880, 765.271040}, "Q10": {56760, 288.216080},
		"Q12": {192, 232.363536}, "Q14": {129136, 196.363087}, "Q18": {494208, 664.839664},
		"Q21": {1312, 1440.128496},
	}
	for _, fx := range []fixture{benchFx, fig7Fx} {
		local := 0
		for _, r := range sweepOf(t, fx).runs {
			if r.stats {
				local += len(findPlan(r.rw.Root, func(n plan.Node) bool {
					f, ok := n.(*plan.RuntimeFilterNode)
					return ok && f.Local
				}))
			}
		}
		if local == 0 {
			t.Errorf("sf %v on %d nodes: the sweep placed no local filter", fx.sf, fx.nodes)
		}
	}
	s := sweepOf(t, benchFx)
	for query, want := range before {
		r := s.run("SD", query, true)
		bytes, simMs := r.res.Stats.BytesShipped, ms(r.sim)
		if bytes > want.bytes || simMs > want.simMs {
			t.Errorf("SD/%s: %d B, %.3f sim ms; before local filters %d B, %.3f ms\n%s",
				query, bytes, simMs, want.bytes, want.simMs, r.rw.Explain())
		}
		if query == "Q21" && simMs > 700 {
			t.Errorf("SD/Q21 takes %.3f sim ms, want at most 700\n%s", simMs, r.rw.Explain())
		}
	}
}

// TestPrefJoinsRunLocallyTPCH: the rewrite keeps the locality the design
// promises, at every fixture on every variant, with and without
// statistics. Every inner equi-join whose two inputs are base tables that
// the configuration relates by exactly the join predicate — a PREF scheme,
// or a cover (partition.Config.Covers) — runs with no Repartition or
// Broadcast below it on either input. There is no exception.
func TestPrefJoinsRunLocallyTPCH(t *testing.T) {
	joins := 0
	for _, s := range allSweeps(t) {
		for _, r := range s.runs {
			covers := r.rw.Cfg.Covers(r.rw.Catalog)
			walkPlan(r.rw.Root, func(n plan.Node) {
				j, ok := n.(*plan.JoinNode)
				if !ok || j.Type != plan.Inner || len(j.LeftCols) == 0 {
					return
				}
				l, lok := baseInput(j.Left)
				rt, rok := baseInput(j.Right)
				if !lok || !rok || !prefRelated(r.rw.Cfg, covers, l, j.LeftCols, rt, j.RightCols) &&
					!prefRelated(r.rw.Cfg, covers, rt, j.RightCols, l, j.LeftCols) {
					return
				}
				joins++
				for _, in := range []plan.Node{j.Left, j.Right} {
					for _, x := range findPlan(in, isExchange) {
						t.Errorf("%v: %s below %s\n%s", r, x, j, r.rw.Explain())
					}
				}
			})
		}
	}
	t.Logf("%d joins of two related base tables", joins)
	if joins == 0 {
		t.Fatal("fixture drift: no join of two related base tables")
	}
}

// baseInput returns the scan a join input reads through filters,
// projections, deduplications and exchanges only.
func baseInput(n plan.Node) (*plan.ScanNode, bool) {
	for {
		switch x := n.(type) {
		case *plan.ScanNode:
			return x, true
		case *plan.FilterNode, *plan.RuntimeFilterNode, *plan.ProjectNode, *plan.DistinctPrefNode,
			*plan.RepartitionNode, *plan.BroadcastNode:
			n = x.Children()[0]
		default:
			return nil, false
		}
	}
}

// prefRelated reports whether ring's table is PREF on, or covers, refd's
// table by exactly the pairing ringCols = refdCols.
func prefRelated(cfg *partition.Config, covers map[string][]partition.Cover,
	ring *plan.ScanNode, ringCols []string, refd *plan.ScanNode, refdCols []string) bool {
	ts := cfg.Scheme(ring.Table)
	if ts == nil || ts.Method != partition.Pref {
		return false
	}
	pairs := func(a, b []string) []string {
		out := make([]string, len(a))
		for i := range a {
			out[i] = a[i] + "=" + b[i]
		}
		slices.Sort(out)
		return out
	}
	qualified := func(alias string, cols []string) []string {
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = plan.Qualify(alias, c)
		}
		return out
	}
	join := pairs(ringCols, refdCols)
	for _, c := range append([]partition.Cover{{Table: ts.RefTable, Pred: ts.Pred}}, covers[ring.Table]...) {
		if c.Table == refd.Table && slices.Equal(join,
			pairs(qualified(ring.Alias, c.Pred.ReferencingCols), qualified(refd.Alias, c.Pred.ReferencedCols))) {
			return true
		}
	}
	return false
}

// walkPlan visits every operator of a physical plan, pre-order.
func walkPlan(n plan.Node, visit func(plan.Node)) {
	visit(n)
	for _, c := range n.Children() {
		walkPlan(c, visit)
	}
}

// findPlan returns the nodes of the plan at n that match pred.
func findPlan(n plan.Node, pred func(plan.Node) bool) []plan.Node {
	var out []plan.Node
	walkPlan(n, func(x plan.Node) {
		if pred(x) {
			out = append(out, x)
		}
	})
	return out
}

// scans reports whether the plan at n scans table tbl.
func scans(n plan.Node, tbl string) bool {
	return len(findPlan(n, func(x plan.Node) bool { s, ok := x.(*plan.ScanNode); return ok && s.Table == tbl })) > 0
}

func isBroadcast(n plan.Node) bool { _, ok := n.(*plan.BroadcastNode); return ok }

func isExchange(n plan.Node) bool {
	switch n.(type) {
	case *plan.RepartitionNode, *plan.BroadcastNode, *plan.GatherNode:
		return true
	}
	return false
}

// unprunedWidth is how many columns n would produce with no pruning: scans
// hand out the table's columns (plus the two index vectors on a PREF table),
// joins concatenate, and projections and aggregations name their own.
func unprunedWidth(rw *plan.Rewritten, n plan.Node) int {
	switch n := n.(type) {
	case *plan.JoinNode:
		if n.Type == plan.Semi || n.Type == plan.Anti {
			return unprunedWidth(rw, n.Left)
		}
		return unprunedWidth(rw, n.Left) + unprunedWidth(rw, n.Right)
	case *plan.ScanNode, *plan.ProjectNode, *plan.AggregateNode, *plan.PartialAggNode, *plan.FinalAggNode:
		return len(rw.Schema(n))
	default:
		return unprunedWidth(rw, n.Children()[0])
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TestReplicatedJoinsSinkTPCH: with statistics, a join with a replicated
// table moves down to the input that holds its key where that is priced
// cheaper (internal/plan's sink.go). On every priced run of the sweep, a
// join the rule could still move is one the pricing keeps where it is, for
// the reason pinned below, by query and replicated input. At benchFx, SD's
// Q7 joins supplier to n1 and customer to n2, and the pair filter over both
// nations sits on the orders ⋈ customer join, the lowest that reads both.
func TestReplicatedJoinsSinkTPCH(t *testing.T) {
	kept := map[string]string{
		"Q2/r": "at sf 0.002 its join probes the ~20 supplier ⋈ nation rows; " +
			"below it, it would probe all 25 nations",
		"Q8/n2": "below l ⋈ s it would join the whole replicated supplier table on every node; " +
			"above it, only the lines part's filter keeps",
		"Q9/ps": "with partsupp replicated (CP), below l ⋈ s it probes as many lines as above it: " +
			"a tie keeps the written order",
		"Q10/n": "below c ⋈ o it would probe the customers the orders filter keeps, " +
			"estimated no fewer than the pairs above it",
	}
	// Under AllReplicated every input is replicated: each node joins whole
	// tables, and the rule moves a join only where it is priced strictly
	// cheaper.
	const everything = "AllReplicated"
	used := map[string]bool{}
	for _, s := range allSweeps(t) {
		for _, r := range s.runs {
			if !r.stats {
				continue
			}
			for _, j := range sinkable(r.rw) {
				d, _ := baseInput(j.Right)
				key := r.query + "/" + d.Alias
				if _, ok := kept[key]; !ok && r.variant != everything {
					t.Errorf("%v: %s over %s is left above a join whose input holds its keys\n%s", r, j, d, r.rw.Explain())
				}
				used[key] = true
			}
		}
	}
	for key := range kept {
		if !used[key] {
			t.Errorf("%s: no run keeps that join in place; drop the exception", key)
		}
	}

	r := sweepOf(t, benchFx).run("SD", "Q7", true)
	onto := map[string]string{}   // replicated nation alias -> the table it joins
	residual := map[string]bool{} // joins with a residual, by their first key
	walkPlan(r.rw.Root, func(n plan.Node) {
		j, ok := n.(*plan.JoinNode)
		if !ok {
			return
		}
		if d, ok := baseInput(j.Right); ok && d.Table == "nation" {
			if a, ok := baseInput(j.Left); ok {
				onto[d.Alias] = a.Table
			}
		}
		if j.Residual != nil {
			residual[j.LeftCols[0]] = true
		}
	})
	if onto["n1"] != "supplier" || onto["n2"] != "customer" || len(residual) != 1 || !residual["o.custkey"] {
		t.Errorf("%v: want n1 joined to supplier, n2 to customer and the pair filter on o ⋈ c, got %v and residuals on %v\n%s",
			r, onto, residual, r.rw.Explain())
	}
}

// sinkable returns the joins of rw that the sink rule could still move: an
// inner equi-join whose right input is a replicated base table, possibly
// filtered, over an inner equi-join one of whose inputs holds its keys and
// carries neither split sums nor PREF duplicates its join drops.
func sinkable(rw *plan.Rewritten) []*plan.JoinNode {
	var out []*plan.JoinNode
	walkPlan(rw.Root, func(n plan.Node) {
		j, ok := n.(*plan.JoinNode)
		if !ok || j.Type != plan.Inner || len(j.LeftCols) == 0 {
			return
		}
		d, ok := baseInput(j.Right)
		if !ok || findPlan(j.Right, isExchange) != nil || rw.Cfg.Scheme(d.Table).Method != partition.Replicated {
			return
		}
		x, ok := throughFilters(j.Left).(*plan.JoinNode)
		if !ok || x.Type != plan.Inner || len(x.LeftCols) == 0 {
			return
		}
		for _, a := range []plan.Node{x.Left, x.Right} {
			p, sch := rw.Props[a], rw.Schema(a)
			holds := !slices.ContainsFunc(j.LeftCols, func(c string) bool { return sch.Index(c) < 0 })
			if holds && p.Orphans == "" && !(p.Dup() && !rw.Props[x].Dup()) {
				out = append(out, j)
			}
		}
	})
	return out
}

// throughFilters skips the runtime filters above n.
func throughFilters(n plan.Node) plan.Node {
	for {
		f, ok := n.(*plan.RuntimeFilterNode)
		if !ok {
			return n
		}
		n = f.Child
	}
}

// TestPartialsBelowLookupsTPCH: with statistics, a two-phase aggregate's
// partial runs below the joins that only name its groups where that is priced
// cheaper (internal/plan's lookup.go). It does so in exactly the runs pinned
// below, by fixture, variant and query, and in no run without statistics.
// At benchFx on the all-hashed design, Q7's partial sums the lines per
// supplier nation, customer nation and year below both nation joins, and
// its exchange ships the two names, the year and the revenue, as it did
// above them.
func TestPartialsBelowLookupsTPCH(t *testing.T) {
	want := map[string]bool{}
	for _, fx := range []string{"sf 0.002/4 nodes", "sf 0.01/4 nodes", "sf 0.01/10 nodes", "sf 0.05/4 nodes"} {
		for _, q := range []string{"AllHashed/Q7", "AllHashed/Q8", "AllHashed/Q9", "AllHashed/Q10", "SD-paper/Q7"} {
			want[fx+"/"+q] = true
		}
	}
	for _, key := range []string{"sf 0.01/4 nodes/AllHashed/Q5", "sf 0.05/4 nodes/AllHashed/Q5",
		"sf 0.01/10 nodes/CP/Q7", "sf 0.01/10 nodes/SD/Q7", "sf 0.01/10 nodes/SD/Q10"} {
		want[key] = true
	}
	for _, s := range allSweeps(t) {
		for _, r := range s.runs {
			key := fmt.Sprintf("sf %v/%d nodes/%s/%s", r.sf, r.nodes, r.variant, r.query)
			if got := len(lowered(r.rw.Root)) > 0; got != (r.stats && want[key]) {
				t.Errorf("%v: partial below a lookup join = %v\n%s", r, got, r.rw.Explain())
			}
		}
	}
	r := sweepOf(t, benchFx).run("AllHashed", "Q7", true)
	ps := lowered(r.rw.Root)
	if len(ps) != 1 || fmt.Sprint(ps[0].GroupBy) != "[l_year s.nationkey c.nationkey]" {
		t.Fatalf("%v: want one partial by year and both nation keys below the nation joins\n%s", r, r.rw.Explain())
	}
	ex := r.rw.Root.(*plan.FinalAggNode).Child
	ships := r.rw.Schema(ex).Names()
	slices.Sort(ships)
	if fmt.Sprint(ships) != "[l_year n1.name n2.name revenue]" {
		t.Errorf("%v: %s ships %v, want the names, the year and the revenue", r, ex, ships)
	}
}

// lowered returns the partial aggregates of the plan at n that run below a
// join.
func lowered(n plan.Node) []*plan.PartialAggNode {
	var out []*plan.PartialAggNode
	for _, j := range findPlan(n, func(n plan.Node) bool { _, ok := n.(*plan.JoinNode); return ok }) {
		for _, in := range j.Children() {
			if p, ok := in.(*plan.PartialAggNode); ok {
				out = append(out, p)
			}
		}
	}
	return out
}
