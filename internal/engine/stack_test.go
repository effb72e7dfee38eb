package engine

import (
	"reflect"
	"testing"

	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/trace"
)

// TestStackReadsTheCheaperIndex: a Filter with literal bounds on o.odate
// over a local runtime filter on o.orderkey over a scan of orders is one
// filter stack with two candidate reads, keys(o.orderkey) and
// range(o.odate), and each partition is read through the one with the
// least probes + fetched rows. A few days against every third key reads
// the range; one key against half the days reads the keys. Either way
// every filter of the stack runs over the fetched rows, the stack keeps
// exactly the rows both filters hold for, the scan's work is the cheaper
// read's, the lowest filter counts the rows the read skipped as skipped,
// so the scan's work is its probes plus the rows that filter examined (the
// index-read law), and as filtered, with the rows it drops itself, so it
// passes on its input less what it filtered; the product's rows, trace
// totals and per-node reads equal the row reference's.
func TestStackReadsTheCheaperIndex(t *testing.T) {
	const odate = 2
	db := dateDB(t)
	cfg := dateConfigs()["hashed"]
	pdb, err := partition.Apply(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		keys   func(*table.Partition, int) []int64
		lo, hi int64
		read   string
	}{
		{"the range beats the keys", everyThird, day(0), day(3), "range(o.odate)"},
		{"the range loses to the keys", firstRow, day(0), day(39), "keys(o.orderkey)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rw, rf := filterPlan(t, db, cfg, "orders", "o", "o.orderkey")
			pred := plan.And(plan.Ge(plan.Col("o.odate"), plan.Lit(c.lo)), plan.Le(plan.Col("o.odate"), plan.Lit(c.hi)))
			f := plan.Filter(rf, pred)
			rw.Root, rw.Schemas[f], rw.Props[f] = f, rw.Schemas[rf], rw.Props[rf]
			parts := pdb.Tables["orders"].Snapshot().Parts
			keys := make([][]int64, len(parts))
			for p, part := range parts {
				keys[p] = c.keys(part, 0)
			}
			got, tr, err := runFilter(rw, pdb, nil, keys, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			refGot, refTr, err := runFilter(rw, pdb, nil, keys, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			requirePoolBalanced(t, c.name)
			scanSpan, refScan := tr.Root.Children[0].Children[0].Children[0], refTr.Root.Children[0].Children[0].Children[0]
			if !reflect.DeepEqual(got, refGot) || tr.Totals != refTr.Totals || !reflect.DeepEqual(unclocked(scanSpan), unclocked(refScan)) {
				t.Fatalf("product and reference diverge:\nvec %v %+v\nrow %v %+v\n%s", got, tr.Totals, refGot, refTr.Totals,
					tr.Render(trace.RenderOptions{HideWall: true, Nodes: true}))
			}
			lowest := tr.Root.Children[0].Children[0]
			for p, part := range parts {
				set := map[int64]bool{}
				for _, k := range keys[p] {
					set[k] = true
				}
				var want []int64
				inRange, named := 0, 0
				for _, r := range part.Rows() {
					in := c.lo <= r[odate] && r[odate] <= c.hi
					if in {
						inRange++
					}
					if set[r[0]] {
						named++
					}
					if in && set[r[0]] {
						want = append(want, r[0])
					}
				}
				var gotKeys []int64
				for _, r := range got[p] {
					gotKeys = append(gotKeys, r[0])
				}
				if !reflect.DeepEqual(gotKeys, want) {
					t.Errorf("partition %d keeps %v, want %v", p, gotKeys, want)
				}
				work, fetched := int64(1+inRange), int64(inRange)
				if k := int64(len(set) + named); k < work {
					work, fetched = k, int64(named)
				}
				nm, lm := scanSpan.Nodes[p], lowest.Nodes[p]
				if nm.Read != c.read || nm.Work != work || lm.SkippedRows != int64(part.Len())-fetched {
					t.Errorf("node %d: scan read=%s work=%d, lowest filter skipped=%d; want read=%s work=%d skipped=%d",
						p, nm.Read, nm.Work, lm.SkippedRows, c.read, work, int64(part.Len())-fetched)
				}
				if lm.FilteredRows != lm.RowsIn-lm.RowsOut {
					t.Errorf("node %d: the lowest filter took %d rows, passed %d and filtered %d", p, lm.RowsIn, lm.RowsOut, lm.FilteredRows)
				}
			}
		})
	}
}

// unclocked returns span ot's per-node cells without their wall times.
func unclocked(ot *trace.OpTrace) []trace.NodeMetrics {
	out := append([]trace.NodeMetrics(nil), ot.Nodes...)
	for i := range out {
		out[i].WallNanos = 0
	}
	return out
}
