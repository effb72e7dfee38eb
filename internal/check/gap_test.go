package check_test

import (
	"math"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/value"
)

// gapPlan rewrites a join of the orders placed before day 500 with the lines
// shipped after it, over a schema that declares every line ships 1–10 days
// after its order, both tables hashed on the order key: the join is local,
// no runtime filter fires, and each input takes a window. It returns the
// plan and the orders filter.
func gapPlan(t *testing.T) (*plan.Rewritten, *plan.FilterNode) {
	t.Helper()
	s := catalog.NewSchema("g")
	s.MustAddTable(catalog.MustTable("orders",
		[]catalog.Column{{Name: "orderkey", Kind: value.Int}, {Name: "odate", Kind: value.Date}}, "orderkey"))
	s.MustAddTable(catalog.MustTable("lineitem",
		[]catalog.Column{{Name: "linekey", Kind: value.Int}, {Name: "orderkey", Kind: value.Int}, {Name: "sdate", Kind: value.Date}}, "linekey"))
	s.MustAddFK(catalog.ForeignKey{Name: "fk_l_o", FromTable: "lineitem", FromCols: []string{"orderkey"},
		ToTable: "orders", ToCols: []string{"orderkey"}, ToIsUnique: true,
		Gaps: []catalog.DateGap{{ChildDate: "sdate", ParentDate: "odate", Min: 1, Max: 10}}})
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "orderkey").SetHash("lineitem", "orderkey")
	q := plan.Join(plan.Filter(plan.Scan("orders", "o"), plan.Lt(plan.Col("o.odate"), plan.Lit(500))),
		plan.Filter(plan.Scan("lineitem", "l"), plan.Gt(plan.Col("l.sdate"), plan.Lit(500))),
		plan.Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
	rw := mustRewrite(t, q, s, cfg)
	windowed := 0
	var orders *plan.FilterNode
	findNode(rw.Root, func(n plan.Node) bool {
		if f, ok := n.(*plan.FilterNode); ok && len(f.Windows) > 0 {
			windowed++
			if f.Windows[0].Col == "o.odate" {
				orders = f
			}
		}
		return false
	})
	if windowed != 2 || orders == nil || orders.Windows[0].Lo != 491 {
		t.Fatalf("fixture drift: want a window on both inputs, orders' from day 491\n%s", rw.Explain())
	}
	if err := check.Verify(rw); err != nil {
		t.Fatalf("Verify failed before any mutation: %v\n%s", err, rw.Explain())
	}
	return rw, orders
}

// replant gives filter f the window w in place of its first one, closing
// its predicate with w's conjuncts.
func replant(f *plan.FilterNode, w plan.Window) {
	conj := plan.Conjuncts(f.Pred)
	conj = conj[:len(conj)-len(f.Windows[0].Conjuncts())]
	f.Windows = []plan.Window{w}
	f.Pred = plan.And(append(conj, w.Conjuncts()...)...)
}

// TestVerifyRejectsNarrowWindows: the checker re-proves every window from
// its join and the declared gap. A window one day too narrow on either
// side, one whose join is not above it, and a predicate that does not close
// with the recorded window are each rejected; the same window one day wider
// still verifies, as any window the gap implies does.
func TestVerifyRejectsNarrowWindows(t *testing.T) {
	for name, c := range map[string]struct {
		mutate func(*plan.FilterNode)
		ok     bool
	}{
		"one day too narrow": {mutate: func(f *plan.FilterNode) {
			w := f.Windows[0]
			w.Lo++
			replant(f, w)
		}},
		"a closed side the gap leaves open": {mutate: func(f *plan.FilterNode) {
			w := f.Windows[0]
			w.Hi = 1000
			replant(f, w)
		}},
		"its join is not above it": {mutate: func(f *plan.FilterNode) {
			w := f.Windows[0]
			w.Join = plan.Join(plan.Scan("orders", "o2"), plan.Scan("lineitem", "l2"), plan.Inner, []string{"o2.orderkey"}, []string{"l2.orderkey"})
			replant(f, w)
		}},
		"a predicate the window does not close": {mutate: func(f *plan.FilterNode) {
			f.Pred = plan.And(plan.Conjuncts(f.Pred)[0], plan.Ge(plan.Col("o.odate"), plan.Lit(492)))
		}},
		"one day wider": {ok: true, mutate: func(f *plan.FilterNode) {
			w := f.Windows[0]
			w.Lo--
			replant(f, w)
		}},
	} {
		t.Run(name, func(t *testing.T) {
			rw, orders := gapPlan(t)
			c.mutate(orders)
			if c.ok {
				if err := check.Verify(rw); err != nil {
					t.Fatalf("a window the gap implies is rejected: %v", err)
				}
				return
			}
			expectRule(t, rw, check.RuleGap)
		})
	}
	if (plan.Window{Lo: math.MinInt64, Hi: math.MaxInt64}).Conjuncts() != nil {
		t.Error("an open window adds a conjunct")
	}
}
