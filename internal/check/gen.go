package check

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/value"
)

// Scenario generators for property-based tests. They live in the package
// proper (not a _test.go file) so the engine's trace-invariant property
// tests can drive the same random schema/design/query space the checker's
// own fuzz tests cover.

// GenSchema builds a random 2–5 table catalog. Columns are Int so any
// column pair is equi-join compatible; the first column is the PK.
func GenSchema(rng *rand.Rand) *catalog.Schema {
	s := catalog.NewSchema("fuzz")
	nt := 2 + rng.Intn(4)
	for ti := 0; ti < nt; ti++ {
		nc := 2 + rng.Intn(4)
		cols := make([]catalog.Column, nc)
		for ci := 0; ci < nc; ci++ {
			cols[ci] = catalog.Column{Name: fmt.Sprintf("t%dc%d", ti, ci), Kind: value.Int}
		}
		t, err := catalog.NewTable(fmt.Sprintf("t%d", ti), cols, cols[0].Name)
		if err != nil {
			continue // unreachable for generated shapes; skip defensively
		}
		if err := s.AddTable(t); err != nil {
			continue
		}
	}
	return s
}

// GenConfig assigns each table a random scheme. PREF schemes only
// reference lower-numbered, non-replicated tables, so chains are acyclic
// by construction and always bottom out at a properly partitioned seed
// (VerifyDesign rejects replicated seeds, which Config.Validate tolerates).
func GenConfig(rng *rand.Rand, s *catalog.Schema) *partition.Config {
	cfg := partition.NewConfig(2 + rng.Intn(4))
	names := s.TableNames()
	var seedable []string
	for _, name := range names {
		t := s.Table(name)
		switch r := rng.Intn(4); {
		case r == 0 && len(seedable) > 0:
			ref := s.Table(seedable[rng.Intn(len(seedable))])
			// Reference a random column pair; referencing the PK sometimes
			// makes the chain hash-equivalent or redundancy-free, so all
			// three dup regimes are exercised.
			rc := t.Columns[rng.Intn(t.NumCols())].Name
			sc := ref.Columns[rng.Intn(ref.NumCols())].Name
			cfg.SetPref(name, ref.Name, []string{rc}, []string{sc})
			seedable = append(seedable, name)
		case r == 1:
			cfg.SetReplicated(name)
		default:
			cfg.SetHash(name, t.Columns[rng.Intn(t.NumCols())].Name)
			seedable = append(seedable, name)
		}
	}
	return cfg
}

// GenQuery builds a random left-deep SPJA plan over 1–3 distinct tables,
// optionally topped by a filter, an aggregate, or a top-k; an aggregate may
// in turn carry a HAVING filter, and the whole may be joined to an
// aggregated subquery. The last two are drawn after everything else, so a
// seed generates the same plan beneath them as it did before they existed.
// Then each join may get a residual and a filtered right input
// (genJoinPreds), drawn from a stream of their own, so rng draws what it
// drew before they existed.
func GenQuery(rng *rand.Rand, s *catalog.Schema) plan.Node {
	var joins []genJoin
	root := genQuery(rng, s, &joins)
	genJoinPreds(root, joins)
	return genLookupAgg(root, s)
}

// genLookupAgg, with probability one half, joins the input of a grouped
// aggregate at root, on the primary key, to a table under the fresh alias
// lk, and groups by one of lk's columns too: a join that only names the
// groups. Half of those also group by a second column of the aggregate's
// input, and half join a second table under lk2 the same way, so a partial
// moved below them groups by several of its input's columns and join keys.
// Where the design replicates lk, or the rewrite broadcasts it, the partial
// aggregate may run below that join (internal/plan's lookup.go). The draws
// come from a stream seeded by root's shape, apart from genJoinPreds', so
// rng draws what it drew before, and a plan without a grouped aggregate at
// its root is left as it was.
func genLookupAgg(root plan.Node, s *catalog.Schema) plan.Node {
	agg, ok := root.(*plan.AggregateNode)
	if !ok || len(agg.GroupBy) == 0 {
		return root
	}
	h := fnv.New64a()
	h.Write([]byte("lookup\n" + plan.Format(root)))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	if rng.Intn(2) == 0 {
		return root
	}
	names := s.TableNames()
	t := s.Table(names[rng.Intn(len(names))])
	on := agg.GroupBy[0] // or the summed column
	for _, a := range agg.Aggs {
		if col, isCol := plan.ColName(a.Arg); isCol && rng.Intn(2) == 0 {
			on = col
		}
	}
	named := t.Columns[rng.Intn(t.NumCols())].Name
	if rng.Intn(2) == 0 {
		named = t.PK[0]
	}
	var in plan.Node = plan.Join(agg.Child, plan.Scan(t.Name, "lk"), plan.Inner, []string{on}, []string{plan.Qualify("lk", t.PK[0])})
	groupBy := append(slices.Clone(agg.GroupBy), plan.Qualify("lk", named))
	// These draws come after the ones above, so the plans they leave alone
	// keep the shape they had before the draws existed.
	cols := genOutCols(agg.Child, s)
	if c := cols[rng.Intn(len(cols))]; rng.Intn(2) == 0 && !slices.Contains(groupBy, c) {
		groupBy = append(groupBy, c)
	}
	if rng.Intn(2) == 0 {
		t2 := s.Table(names[rng.Intn(len(names))])
		on2 := cols[rng.Intn(len(cols))]
		in = plan.Join(in, plan.Scan(t2.Name, "lk2"), plan.Inner, []string{on2}, []string{plan.Qualify("lk2", t2.PK[0])})
		groupBy = append(groupBy, plan.Qualify("lk2", t2.Columns[rng.Intn(t2.NumCols())].Name))
	}
	return plan.Aggregate(in, groupBy, agg.Aggs...)
}

// genOutCols lists the base columns a generated plan n outputs: those of
// its scans, but for the right inputs of its semi and anti joins.
func genOutCols(n plan.Node, s *catalog.Schema) []string {
	switch x := n.(type) {
	case *plan.ScanNode:
		var out []string
		for _, c := range s.Table(x.Table).Columns {
			out = append(out, plan.Qualify(x.Alias, c.Name))
		}
		return out
	case *plan.JoinNode:
		if x.Type == plan.Semi || x.Type == plan.Anti {
			return genOutCols(x.Left, s)
		}
	}
	var out []string
	for _, c := range n.Children() {
		out = append(out, genOutCols(c, s)...)
	}
	return out
}

// genJoin is one join of a generated plan and the columns of its inputs.
type genJoin struct {
	j           *plan.JoinNode
	left, right []string
}

// genJoinPreds gives each join of joins, with probability one half, a
// residual reading both of its inputs: a column equality, or an OR of two
// ranges, one over each input. A quarter of the joined base tables get a
// range filter, which makes them selective enough to send a runtime filter
// to the join's other input, and with an equality below, to fork it. The
// draws come from a stream seeded by root's shape.
func genJoinPreds(root plan.Node, joins []genJoin) {
	h := fnv.New64a()
	h.Write([]byte(plan.Format(root)))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	between := func(col string) plan.BoolExpr {
		lo := int64(rng.Intn(20))
		return plan.And(plan.Ge(plan.Col(col), plan.Lit(lo)), plan.Le(plan.Col(col), plan.Lit(lo+5)))
	}
	for _, g := range joins {
		l, r := g.left[rng.Intn(len(g.left))], g.right[rng.Intn(len(g.right))]
		switch rng.Intn(4) {
		case 0:
			g.j.Residual = plan.Eq(plan.Col(l), plan.Col(r))
		case 1:
			g.j.Residual = plan.Or(between(l), between(r))
		}
		if _, ok := g.j.Right.(*plan.ScanNode); ok && rng.Intn(4) == 0 {
			g.j.Right = plan.Filter(g.j.Right, between(g.right[rng.Intn(len(g.right))]))
		}
	}
}

func genQuery(rng *rand.Rand, s *catalog.Schema, joins *[]genJoin) plan.Node {
	names := s.TableNames()
	nscan := 1 + rng.Intn(3)
	if nscan > len(names) {
		nscan = len(names)
	}
	perm := rng.Perm(len(names))[:nscan]

	alias := func(i int) string { return fmt.Sprintf("a%d", i) }
	qcols := func(i int) []string {
		t := s.Table(names[perm[i]])
		out := make([]string, t.NumCols())
		for ci, col := range t.Columns {
			out[ci] = plan.Qualify(alias(i), col.Name)
		}
		return out
	}

	var root plan.Node = plan.Scan(names[perm[0]], alias(0))
	cols := qcols(0)
	for i := 1; i < nscan; i++ {
		right := plan.Scan(names[perm[i]], alias(i))
		rcols := qcols(i)
		jt := plan.Inner
		switch rng.Intn(4) {
		case 1:
			jt = plan.Semi
		case 2:
			jt = plan.Anti
		case 3:
			jt = plan.LeftOuter
		}
		lc := cols[rng.Intn(len(cols))]
		rc := rcols[rng.Intn(len(rcols))]
		j := plan.Join(root, right, jt, []string{lc}, []string{rc})
		*joins = append(*joins, genJoin{j, cols, rcols})
		root = j
		if jt == plan.Semi || jt == plan.Anti {
			continue // right columns do not survive
		}
		cols = append(append([]string(nil), cols...), rcols...)
	}

	if rng.Intn(2) == 0 {
		root = plan.Filter(root, plan.Gt(plan.Col(cols[rng.Intn(len(cols))]), plan.Lit(int64(rng.Intn(50)))))
	}
	aggregated := false
	switch rng.Intn(4) {
	case 0:
		g := cols[rng.Intn(len(cols))]
		root = plan.Aggregate(root, []string{g}, plan.Count("cnt"),
			plan.Sum(plan.Col(cols[rng.Intn(len(cols))]), "s"))
		cols, aggregated = []string{g, "cnt", "s"}, true
	case 1:
		root = plan.Aggregate(root, nil, plan.Count("cnt"))
		cols, aggregated = []string{"cnt"}, true
	case 2:
		root = plan.TopK(root, 1+rng.Intn(10), plan.OrderSpec{Col: cols[rng.Intn(len(cols))]})
	}

	// HAVING: a filter over the aggregate's output.
	if having := rng.Intn(3) == 0; having && aggregated {
		root = plan.Filter(root, plan.Gt(plan.Col("cnt"), plan.Lit(int64(rng.Intn(4)))))
	}
	// Join to an aggregated subquery over any table (a repeat of one already
	// scanned is a self-join under a fresh alias).
	if rng.Intn(4) == 0 {
		t := s.Table(names[rng.Intn(len(names))])
		g := plan.Qualify("sub", t.Columns[rng.Intn(t.NumCols())].Name)
		sub := plan.Aggregate(plan.Scan(t.Name, "sub"), []string{g}, plan.Count("subcnt"))
		jt := []plan.JoinType{plan.Inner, plan.Semi, plan.LeftOuter}[rng.Intn(3)]
		j := plan.Join(root, sub, jt, []string{cols[rng.Intn(len(cols))]}, []string{g})
		*joins = append(*joins, genJoin{j, cols, []string{g, "subcnt"}})
		root = j
	}
	return root
}

// GenKeyJoinSums builds the shape eager aggregation rewrites, which
// GenQuery's plans reach in about one seed of 10 000: a table l joined on one
// column to the primary key of another table p, aggregated by that column,
// perhaps under a HAVING filter. Half the time, when cfg places some table by PREF
// on another's primary key, l and p are such a pair and the join follows the
// PREF predicate, so the sums may be taken in place.
func GenKeyJoinSums(rng *rand.Rand, s *catalog.Schema, cfg *partition.Config) plan.Node {
	var prefs []*partition.TableScheme
	for _, name := range s.TableNames() {
		ts := cfg.Scheme(name)
		if ts == nil || ts.Method != partition.Pref || len(ts.Pred.ReferencedCols) != 1 {
			continue
		}
		if ref := s.Table(ts.RefTable); ref != nil && ref.IsPK(ts.Pred.ReferencedCols) {
			prefs = append(prefs, ts)
		}
	}
	var l, p *catalog.Table
	var fk string
	if len(prefs) > 0 && rng.Intn(2) == 0 {
		ts := prefs[rng.Intn(len(prefs))]
		l, p, fk = s.Table(ts.Table), s.Table(ts.RefTable), ts.Pred.ReferencingCols[0]
	} else {
		names := s.TableNames()
		perm := rng.Perm(len(names))
		l, p = s.Table(names[perm[0]]), s.Table(names[perm[1]])
		fk = l.Columns[rng.Intn(l.NumCols())].Name
	}
	lk, pk := plan.Qualify("l", fk), plan.Qualify("p", p.PK[0])
	j := plan.Join(plan.Scan(l.Name, "l"), plan.Scan(p.Name, "p"), plan.Inner, []string{lk}, []string{pk})
	arg := plan.Qualify("l", l.Columns[rng.Intn(l.NumCols())].Name)
	var root plan.Node = plan.Aggregate(j, []string{lk}, plan.Count("cnt"), plan.Sum(plan.Col(arg), "s"))
	if rng.Intn(2) == 0 {
		root = plan.Filter(root, plan.Gt(plan.Col("cnt"), plan.Lit(int64(rng.Intn(3)))))
	}
	return root
}
