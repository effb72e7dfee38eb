package plan

import (
	"slices"
	"testing"
)

// coordinatorMerges returns the grouped final aggregates of the plan at n
// that merge gathered partial states, and whether each sits under nothing
// but Projects and Filters.
func coordinatorMerges(n Node, atRoot bool, out map[*FinalAggNode]bool) {
	if f, ok := n.(*FinalAggNode); ok && len(f.GroupBy) > 0 {
		if _, gathered := f.Child.(*GatherNode); gathered {
			out[f] = atRoot
		}
	}
	switch n.(type) {
	case *ProjectNode, *FilterNode:
	default:
		atRoot = false
	}
	for _, c := range n.Children() {
		coordinatorMerges(c, atRoot, out)
	}
}

// TestRootAggregateMergesAtCoordinator: with statistics, a grouped aggregate
// at the plan's root whose partial states are few gathers them and merges
// them at the coordinator; with many, or without statistics, it repartitions
// them. Projects and a HAVING filter above it keep it at the root; a join or
// another aggregate above it does not, and its merge stays distributed.
func TestRootAggregateMergesAtCoordinator(t *testing.T) {
	s := testSchema()
	cfg := scatteredCfg(4)
	byName := func() *AggregateNode {
		j := Join(Scan("orders", "o"), Scan("customer", "c"), Inner, []string{"o.custkey"}, []string{"c.custkey"})
		return Aggregate(j, []string{"c.name"}, Sum(Col("o.total"), "revenue"))
	}
	few, many := testStats(200, 10, 800), testStats(2_000_000, 200_000, 8_000_000)
	for _, c := range []struct {
		name   string
		q      Node
		stats  *Stats
		merges int // coordinator merges, all at the root
		reps   int
	}{
		{"few groups", byName(), few, 1, 0},
		{"few groups, unpriced", byName(), nil, 0, 1},
		{"many groups", byName(), many, 0, 1},
		{"under HAVING and a projection", ProjectCols(Filter(byName(), Gt(Col("revenue"), Lit(5))), "c.name"), few, 1, 0},
		{"below a join", Join(byName(), Scan("customer", "c2"), Inner, []string{"c.name"}, []string{"c2.name"}), few, 0, -1},
		{"below another aggregate", Aggregate(byName(), []string{"revenue"}, Count("n")), few, 1, 1},
	} {
		rw, err := Rewrite(c.q, s, cfg, Options{Stats: c.stats})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		merges := map[*FinalAggNode]bool{}
		coordinatorMerges(rw.Root, true, merges)
		for f, atRoot := range merges {
			if !atRoot {
				t.Errorf("%s: %s merges at the coordinator below the root's projections and filters:\n%s", c.name, f, rw.Explain())
			}
			if p := rw.Props[f]; !p.Gathered {
				t.Errorf("%s: %s records %v, want it gathered", c.name, f, p)
			}
		}
		if len(merges) != c.merges {
			t.Errorf("%s: %d coordinator merges, want %d:\n%s", c.name, len(merges), c.merges, rw.Explain())
		}
		if c.reps >= 0 && countNodes(rw.Root, isRepart) != c.reps {
			t.Errorf("%s: %d repartitions, want %d:\n%s", c.name, countNodes(rw.Root, isRepart), c.reps, rw.Explain())
		}
	}
}

// TestAlignedJoinInputStaysPut: a join input already hashed on columns its
// equivalences equate, position by position, with the join keys is not
// repartitioned again. l ⋈ o repartitions lineitem to orders' key, so its
// output is hashed on l.orderkey ≡ o.orderkey, and the semi join on
// o.orderkey ships only its right input. The output keeps the input's own
// hash columns.
func TestAlignedJoinInputStaysPut(t *testing.T) {
	cfg := pkHashedCfg(4)
	lo := Join(Scan("lineitem", "l"), Scan("orders", "o"), Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
	semi := Join(lo, Scan("lineitem", "l2"), Semi, []string{"o.orderkey"}, []string{"l2.orderkey"})
	rw, err := Rewrite(semi, testSchema(), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cols [][]string
	for _, n := range findNodes(rw.Root, isRepart) {
		cols = append(cols, n.(*RepartitionNode).Cols)
	}
	if want := [][]string{{"l.orderkey"}, {"l2.orderkey"}}; !slices.EqualFunc(cols, want, slices.Equal) {
		t.Fatalf("repartitions on %v, want %v:\n%s", cols, want, rw.Explain())
	}
	if got := rw.RootProp().HashCols(); !slices.Equal(got, []string{"l.orderkey"}) {
		t.Fatalf("semi join hashed on %v, want its left input's [l.orderkey]:\n%s", got, rw.Explain())
	}
}
