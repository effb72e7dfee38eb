package engine

import (
	"context"
	"math/rand"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/fault"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
)

// fuzzScenario draws one schema, design, database and query from a seed, in
// the order every generated sweep of this package draws them, and then a key
// join summed by its foreign-key column over the same design.
func fuzzScenario(seed int64) (*catalog.Schema, *partition.Config, *table.Database, []plan.Node) {
	rng := rand.New(rand.NewSource(seed))
	s := check.GenSchema(rng)
	cfg := check.GenConfig(rng, s)
	if cfg.Validate(s) != nil {
		return nil, nil, nil, nil
	}
	db := genData(rng, s)
	q := check.GenQuery(rng, s)
	return s, cfg, db, []plan.Node{q, check.GenKeyJoinSums(rng, s, cfg)}
}

// FuzzPrunedPlanOracle is the native fuzz target over the generated scenario
// space: a seed (and whether the dup index is on) picks a schema, a PREF
// design, data and an SPJA query, and then a key join summed by its foreign
// key, which the rewrite may sum in place on a PREF placement. For each
// query (oracle), the pruned rewrite must pass the static verifier, the
// product engine and the row reference must agree on rows and on every
// counter — again with node 1 lost, where a query that recovers must answer
// as if nothing had happened — and both must return what the same query
// returns on a single node, where nothing is partitioned, duplicated or
// shipped. The query is rewritten once more with statistics gathered from
// its database, and that plan is held to the same oracle.
//
//	go test -run='^$' -fuzz=FuzzPrunedPlanOracle -fuzztime=20s ./internal/engine
func FuzzPrunedPlanOracle(f *testing.F) {
	// testdata/fuzz holds the seed corpus: one scenario per plan shape the
	// pruning pass treats differently, and one per hand-off of a blocking
	// operator's output batches (aggregate into join, HAVING, value-distinct
	// into join, recovered scan into distinct-pref), one whose anti join
	// sends a runtime filter, built over a semi join's output, to its right,
	// one whose aggregate sums its replicated input per join key below the
	// join with a duplicated PREF table (eager aggregation), one whose
	// anti join, rewritten with statistics, broadcasts its small right input
	// although it sits on the join key (broadcast of an aligned input), and
	// one whose co-located anti join, rewritten with statistics, filters its
	// right input — a PREF table holding duplicate copies — in place with
	// the left input's keys (a local runtime filter), one whose PREF
	// semi join against its bare referenced table filters that table so
	// (the join stays co-located), and one whose join with a replicated
	// table, rewritten with statistics, moves below a misaligned join onto
	// the input that holds its key, above that input's repartition, and one
	// Q5-shaped chain: rewritten with statistics, the filter a replicated
	// table sends to a join's key forks onto the column a lower join's
	// residual equates with that key, below that column's repartition, and
	// one whose aggregate, grouped also by the key of a table the rewrite
	// broadcasts only to name its groups, runs its partial below that lookup
	// join when rewritten with statistics, one where that partial groups by
	// two of its input's columns and the join key, and one where it runs
	// below two lookup joins and groups by both their keys.
	f.Add(int64(0), false)
	f.Add(int64(1), true)
	f.Fuzz(func(t *testing.T, seed int64, noDupIndex bool) {
		s, cfg, db, qs := fuzzScenario(seed)
		if s == nil {
			t.Skip("generator miss: invalid design")
		}
		pdb, err := partition.Apply(db, cfg)
		if err != nil {
			t.Skip("generator miss: design does not apply")
		}
		for _, q := range qs {
			oracle(t, seed, noDupIndex, s, cfg, db, pdb, q)
		}
	})
}

// oracle holds one query of a fuzzed scenario to FuzzPrunedPlanOracle's
// properties.
func oracle(t *testing.T, seed int64, noDupIndex bool, s *catalog.Schema, cfg *partition.Config,
	db *table.Database, pdb *table.PartitionedDatabase, q plan.Node) {
	t.Helper()
	rw, err := plan.Rewrite(q, s, cfg, plan.Options{DisableDupIndex: noDupIndex})
	if err != nil {
		t.Fatalf("rewrite failed: %v\n%s", err, plan.Format(q))
	}
	if err := check.Verify(rw); err != nil {
		t.Fatalf("pruned plan fails verification: %v\n%s", err, rw.Explain())
	}
	clean := assertEnginesAgree(t, seed, rw, pdb, ExecOptions{Trace: true})
	if clean == nil {
		t.Fatalf("fault-free execution failed on both engines\n%s", rw.Explain())
	}
	lossy := assertEnginesAgree(t, seed, rw, pdb, ExecOptions{
		Trace: true,
		Fault: &fault.Policy{Seed: seed, DownNodes: []int{1}, MaxAttempts: 8},
	})
	if lossy != nil && !sameRows(lossy.Rows, clean.Rows) {
		t.Fatalf("result recovered from the loss of node 1 differs from the clean one: %d vs %d rows\nplan:\n%s",
			len(lossy.Rows), len(clean.Rows), rw.Explain())
	}

	one := partition.NewConfig(1)
	for _, name := range s.TableNames() {
		one.SetHash(name, s.Table(name).Columns[0].Name)
	}
	pdb1, err := partition.Apply(db, one)
	if err != nil {
		t.Fatalf("single-node design does not apply: %v", err)
	}
	rw1, err := plan.Rewrite(q, s, one, plan.Options{})
	if err != nil {
		t.Fatalf("single-node rewrite failed: %v", err)
	}
	want, err := ExecuteCtx(context.Background(), rw1, pdb1, ExecOptions{})
	if err != nil {
		t.Fatalf("single-node execute failed: %v", err)
	}
	got, err := ExecuteCtx(context.Background(), rw, pdb, ExecOptions{})
	if err != nil {
		t.Fatalf("execute failed: %v\n%s", err, rw.Explain())
	}
	want.SortRows()
	got.SortRows()
	if !sameRows(got.Rows, want.Rows) {
		t.Fatalf("result differs from single-node execution: %d vs %d rows\ndesign:\n%splan:\n%s\ngot:  %v\nwant: %v",
			len(got.Rows), len(want.Rows), cfg, rw.Explain(), trunc(got.Rows), trunc(want.Rows))
	}

	// With the statistics of its database the rewrite may broadcast an
	// input where it re-partitioned: that plan must answer the same.
	priced, err := plan.Rewrite(q, s, cfg, plan.Options{DisableDupIndex: noDupIndex, Stats: plan.GatherStats(pdb)})
	if err != nil {
		t.Fatalf("rewrite with statistics failed: %v\n%s", err, plan.Format(q))
	}
	if priced.Explain() == rw.Explain() {
		return
	}
	if err := check.Verify(priced); err != nil {
		t.Fatalf("plan rewritten with statistics fails verification: %v\n%s", err, priced.Explain())
	}
	got = assertEnginesAgree(t, seed, priced, pdb, ExecOptions{Trace: true})
	if got == nil {
		t.Fatalf("plan rewritten with statistics failed on both engines\n%s", priced.Explain())
	}
	got.SortRows()
	if !sameRows(got.Rows, want.Rows) {
		t.Fatalf("plan rewritten with statistics differs from single-node execution: %d vs %d rows\ndesign:\n%splan:\n%s",
			len(got.Rows), len(want.Rows), cfg, priced.Explain())
	}
}
