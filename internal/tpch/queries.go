package tpch

import (
	"fmt"

	"pref/internal/plan"
	"pref/internal/value"
)

// QueryNames lists the 22 TPC-H queries in order.
var QueryNames = []string{
	"Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11",
	"Q12", "Q13", "Q14", "Q15", "Q16", "Q17", "Q18", "Q19", "Q20", "Q21", "Q22",
}

// Query builds a fresh logical plan for the named TPC-H query. It panics
// on an unknown name: callers pass source-literal names (tests, benches);
// fallible paths with user-supplied names must use QueryErr.
func (t *TPCH) Query(name string) plan.Node {
	q, err := t.QueryErr(name)
	if err != nil {
		// lint:invariant
		panic(err.Error())
	}
	return q
}

// QueryErr builds a fresh logical plan for the named TPC-H query,
// returning an error on an unknown name. The plans preserve the exact
// join graphs of the official queries; scalar subqueries are flattened
// into SPJA blocks (see the package comment).
func (t *TPCH) QueryErr(name string) (plan.Node, error) {
	switch name {
	case "Q1":
		return t.q1(), nil
	case "Q2":
		return t.q2(), nil
	case "Q3":
		return t.q3(), nil
	case "Q4":
		return t.q4(), nil
	case "Q5":
		return t.q5(), nil
	case "Q6":
		return t.q6(), nil
	case "Q7":
		return t.q7(), nil
	case "Q8":
		return t.q8(), nil
	case "Q9":
		return t.q9(), nil
	case "Q10":
		return t.q10(), nil
	case "Q11":
		return t.q11(), nil
	case "Q12":
		return t.q12(), nil
	case "Q13":
		return t.q13(), nil
	case "Q14":
		return t.q14(), nil
	case "Q15":
		return t.q15(), nil
	case "Q16":
		return t.q16(), nil
	case "Q17":
		return t.q17(), nil
	case "Q18":
		return t.q18(), nil
	case "Q19":
		return t.q19(), nil
	case "Q20":
		return t.q20(), nil
	case "Q21":
		return t.q21(), nil
	case "Q22":
		return t.q22(), nil
	default:
		return nil, fmt.Errorf("tpch: unknown query %q", name)
	}
}

// revenue is extendedprice · (1 − discount/100).
func revenue(alias string) plan.ValExpr {
	return plan.F("revenue", value.Money,
		[]string{alias + ".extendedprice", alias + ".discount"},
		func(v []int64) int64 { return v[0] * (100 - v[1]) / 100 })
}

// charge is extendedprice · (1 − discount/100) · (1 + tax/100).
func charge(alias string) plan.ValExpr {
	return plan.F("charge", value.Money,
		[]string{alias + ".extendedprice", alias + ".discount", alias + ".tax"},
		func(v []int64) int64 { return v[0] * (100 - v[1]) / 100 * (100 + v[2]) / 100 })
}

// yearOf extracts the calendar year from a date column; a later date never
// has an earlier year.
func yearOf(col string) plan.ValExpr {
	return plan.Monotone("year", value.Int, col,
		func(v int64) int64 { return int64(value.ToDate(v).Year()) })
}

// Q1: pricing summary report (single-table aggregation).
func (t *TPCH) q1() plan.Node {
	l := plan.Filter(plan.Scan("lineitem", "l"),
		plan.Le(plan.Col("l.shipdate"), plan.DateLit(1998, 9, 2)))
	return plan.Aggregate(l, []string{"l.returnflag", "l.linestatus"},
		plan.Sum(plan.Col("l.quantity"), "sum_qty"),
		plan.Sum(plan.Col("l.extendedprice"), "sum_base_price"),
		plan.Sum(revenue("l"), "sum_disc_price"),
		plan.Sum(charge("l"), "sum_charge"),
		plan.Avg(plan.Col("l.quantity"), "avg_qty"),
		plan.Avg(plan.Col("l.extendedprice"), "avg_price"),
		plan.Count("count_order"),
	)
}

// Q2: minimum-cost supplier (part⋈partsupp⋈supplier⋈nation⋈region; the
// correlated min-supplycost subquery is flattened to a grouped MIN).
func (t *TPCH) q2() plan.Node {
	// The official predicate is size = 15 AND type LIKE '%BRASS'; the
	// range form keeps the query selective but non-empty at reduced SF.
	p := plan.Filter(plan.Scan("part", "p"), plan.Le(plan.Col("p.size"), plan.Lit(15)))
	pps := plan.Join(p, plan.Scan("partsupp", "ps"), plan.Inner,
		[]string{"p.partkey"}, []string{"ps.partkey"})
	ppss := plan.Join(pps, plan.Scan("supplier", "s"), plan.Inner,
		[]string{"ps.suppkey"}, []string{"s.suppkey"})
	n := plan.Join(ppss, plan.Scan("nation", "n"), plan.Inner,
		[]string{"s.nationkey"}, []string{"n.nationkey"})
	r := plan.Join(n, plan.Filter(plan.Scan("region", "r"),
		plan.Eq(plan.Col("r.name"), plan.Lit(t.Code("region", "name", "EUROPE")))),
		plan.Inner, []string{"n.regionkey"}, []string{"r.regionkey"})
	return plan.Aggregate(r, []string{"p.partkey", "p.mfgr"},
		plan.Min(plan.Col("ps.supplycost"), "min_cost"))
}

// Q3: shipping priority.
func (t *TPCH) q3() plan.Node {
	c := plan.Filter(plan.Scan("customer", "c"),
		plan.Eq(plan.Col("c.mktsegment"), plan.Lit(t.Code("customer", "mktsegment", "BUILDING"))))
	o := plan.Filter(plan.Scan("orders", "o"),
		plan.Lt(plan.Col("o.orderdate"), plan.DateLit(1995, 3, 15)))
	co := plan.Join(c, o, plan.Inner, []string{"c.custkey"}, []string{"o.custkey"})
	l := plan.Filter(plan.Scan("lineitem", "l"),
		plan.Gt(plan.Col("l.shipdate"), plan.DateLit(1995, 3, 15)))
	col := plan.Join(co, l, plan.Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
	return plan.Aggregate(col, []string{"l.orderkey", "o.orderdate", "o.shippriority"},
		plan.Sum(revenue("l"), "revenue"))
}

// Q4: order priority checking — a semi join of orders against late
// lineitems (EXISTS subquery).
func (t *TPCH) q4() plan.Node {
	o := plan.Filter(plan.Scan("orders", "o"), plan.And(
		plan.Ge(plan.Col("o.orderdate"), plan.DateLit(1993, 7, 1)),
		plan.Lt(plan.Col("o.orderdate"), plan.DateLit(1993, 10, 1)),
	))
	late := plan.Filter(plan.Scan("lineitem", "l"),
		plan.Cmp(plan.Col("l.commitdate"), plan.LT, plan.Col("l.receiptdate")))
	semi := plan.Join(o, late, plan.Semi, []string{"o.orderkey"}, []string{"l.orderkey"})
	return plan.Aggregate(semi, []string{"o.orderpriority"}, plan.Count("order_count"))
}

// Q5: local supplier volume — six-way join with the extra
// c_nationkey = s_nationkey condition as a residual predicate.
func (t *TPCH) q5() plan.Node {
	o := plan.Filter(plan.Scan("orders", "o"), plan.And(
		plan.Ge(plan.Col("o.orderdate"), plan.DateLit(1994, 1, 1)),
		plan.Lt(plan.Col("o.orderdate"), plan.DateLit(1995, 1, 1)),
	))
	co := plan.Join(plan.Scan("customer", "c"), o, plan.Inner,
		[]string{"c.custkey"}, []string{"o.custkey"})
	col := plan.Join(co, plan.Scan("lineitem", "l"), plan.Inner,
		[]string{"o.orderkey"}, []string{"l.orderkey"})
	cols := &plan.JoinNode{
		Left: col, Right: plan.Scan("supplier", "s"), Type: plan.Inner,
		LeftCols:  []string{"l.suppkey"},
		RightCols: []string{"s.suppkey"},
		Residual:  plan.Cmp(plan.Col("c.nationkey"), plan.EQ, plan.Col("s.nationkey")),
	}
	n := plan.Join(cols, plan.Scan("nation", "n"), plan.Inner,
		[]string{"s.nationkey"}, []string{"n.nationkey"})
	r := plan.Join(n, plan.Filter(plan.Scan("region", "r"),
		plan.Eq(plan.Col("r.name"), plan.Lit(t.Code("region", "name", "ASIA")))),
		plan.Inner, []string{"n.regionkey"}, []string{"r.regionkey"})
	return plan.Aggregate(r, []string{"n.name"}, plan.Sum(revenue("l"), "revenue"))
}

// Q6: forecasting revenue change (single-table global aggregation).
func (t *TPCH) q6() plan.Node {
	l := plan.Filter(plan.Scan("lineitem", "l"), plan.And(
		plan.Ge(plan.Col("l.shipdate"), plan.DateLit(1994, 1, 1)),
		plan.Lt(plan.Col("l.shipdate"), plan.DateLit(1995, 1, 1)),
		plan.Ge(plan.Col("l.discount"), plan.Lit(5)),
		plan.Le(plan.Col("l.discount"), plan.Lit(7)),
		plan.Lt(plan.Col("l.quantity"), plan.Lit(24)),
	))
	rev := plan.F("disc_rev", value.Money,
		[]string{"l.extendedprice", "l.discount"},
		func(v []int64) int64 { return v[0] * v[1] / 100 })
	return plan.Aggregate(l, nil, plan.Sum(rev, "revenue"))
}

// Q7: volume shipping between two nations (supplier/customer nation pair).
func (t *TPCH) q7() plan.Node {
	sl := plan.Join(plan.Scan("supplier", "s"), plan.Filter(plan.Scan("lineitem", "l"), plan.And(
		plan.Ge(plan.Col("l.shipdate"), plan.DateLit(1995, 1, 1)),
		plan.Le(plan.Col("l.shipdate"), plan.DateLit(1996, 12, 31)),
	)), plan.Inner, []string{"s.suppkey"}, []string{"l.suppkey"})
	slo := plan.Join(sl, plan.Scan("orders", "o"), plan.Inner,
		[]string{"l.orderkey"}, []string{"o.orderkey"})
	sloc := plan.Join(slo, plan.Scan("customer", "c"), plan.Inner,
		[]string{"o.custkey"}, []string{"c.custkey"})
	n1 := plan.Join(sloc, plan.Scan("nation", "n1"), plan.Inner,
		[]string{"s.nationkey"}, []string{"n1.nationkey"})
	// The official pair filter names FRANCE/GERMANY; at reduced SF that
	// pair is often empty, so the structurally identical "supplier nation
	// group vs. customer nation group" pair filter is used instead.
	n2 := &plan.JoinNode{
		Left: n1, Right: plan.Scan("nation", "n2"), Type: plan.Inner,
		LeftCols:  []string{"c.nationkey"},
		RightCols: []string{"n2.nationkey"},
		Residual: plan.Or(
			plan.And(plan.Lt(plan.Col("n1.nationkey"), plan.Lit(12)), plan.Ge(plan.Col("n2.nationkey"), plan.Lit(12))),
			plan.And(plan.Ge(plan.Col("n1.nationkey"), plan.Lit(12)), plan.Lt(plan.Col("n2.nationkey"), plan.Lit(12))),
		),
	}
	withYear := plan.Project(n2,
		[]string{"n1.name", "n2.name", "l_year", "volume"},
		[]plan.ValExpr{plan.Col("n1.name"), plan.Col("n2.name"), yearOf("l.shipdate"), revenue("l")})
	return plan.Aggregate(withYear, []string{"n1.name", "n2.name", "l_year"},
		plan.Sum(plan.Col("volume"), "revenue"))
}

// Q8: national market share.
func (t *TPCH) q8() plan.Node {
	p := plan.Filter(plan.Scan("part", "p"),
		plan.Eq(plan.Col("p.type"), plan.Lit(t.Code("part", "type", "ECONOMY ANODIZED STEEL"))))
	pl := plan.Join(p, plan.Scan("lineitem", "l"), plan.Inner,
		[]string{"p.partkey"}, []string{"l.partkey"})
	pls := plan.Join(pl, plan.Scan("supplier", "s"), plan.Inner,
		[]string{"l.suppkey"}, []string{"s.suppkey"})
	plso := plan.Join(pls, plan.Filter(plan.Scan("orders", "o"), plan.And(
		plan.Ge(plan.Col("o.orderdate"), plan.DateLit(1995, 1, 1)),
		plan.Le(plan.Col("o.orderdate"), plan.DateLit(1996, 12, 31)),
	)), plan.Inner, []string{"l.orderkey"}, []string{"o.orderkey"})
	plsoc := plan.Join(plso, plan.Scan("customer", "c"), plan.Inner,
		[]string{"o.custkey"}, []string{"c.custkey"})
	n1 := plan.Join(plsoc, plan.Scan("nation", "n1"), plan.Inner,
		[]string{"c.nationkey"}, []string{"n1.nationkey"})
	r := plan.Join(n1, plan.Filter(plan.Scan("region", "r"),
		plan.Eq(plan.Col("r.name"), plan.Lit(t.Code("region", "name", "AMERICA")))),
		plan.Inner, []string{"n1.regionkey"}, []string{"r.regionkey"})
	n2 := plan.Join(r, plan.Scan("nation", "n2"), plan.Inner,
		[]string{"s.nationkey"}, []string{"n2.nationkey"})
	withYear := plan.Project(n2,
		[]string{"o_year", "n2.name", "volume"},
		[]plan.ValExpr{yearOf("o.orderdate"), plan.Col("n2.name"), revenue("l")})
	return plan.Aggregate(withYear, []string{"o_year", "n2.name"},
		plan.Sum(plan.Col("volume"), "volume"))
}

// Q9: product type profit measure — the widest join tree (6 tables).
// Joins are ordered along the foreign-key chains (lineitem→partsupp→part,
// lineitem→orders), the order a locality-aware optimizer picks: under the
// PREF designs every one of these joins is co-located. Part joins on the
// official p_partkey = l_partkey (equal to ps.partkey here), so the join
// graph has no part–partsupp edge.
func (t *TPCH) q9() plan.Node {
	lps := plan.Join(plan.Scan("lineitem", "l"), plan.Scan("partsupp", "ps"), plan.Inner,
		[]string{"l.partkey", "l.suppkey"}, []string{"ps.partkey", "ps.suppkey"})
	pl := plan.Join(lps, plan.Scan("part", "p"), plan.Inner,
		[]string{"l.partkey"}, []string{"p.partkey"})
	plso := plan.Join(pl, plan.Scan("orders", "o"), plan.Inner,
		[]string{"l.orderkey"}, []string{"o.orderkey"})
	pls := plan.Join(plso, plan.Scan("supplier", "s"), plan.Inner,
		[]string{"l.suppkey"}, []string{"s.suppkey"})
	n := plan.Join(pls, plan.Scan("nation", "n"), plan.Inner,
		[]string{"s.nationkey"}, []string{"n.nationkey"})
	amount := plan.F("amount", value.Money,
		[]string{"l.extendedprice", "l.discount", "ps.supplycost", "l.quantity"},
		func(v []int64) int64 { return v[0]*(100-v[1])/100 - v[2]*v[3] })
	withYear := plan.Project(n,
		[]string{"n.name", "o_year", "amount"},
		[]plan.ValExpr{plan.Col("n.name"), yearOf("o.orderdate"), amount})
	return plan.Aggregate(withYear, []string{"n.name", "o_year"},
		plan.Sum(plan.Col("amount"), "sum_profit"))
}

// Q10: returned item reporting.
func (t *TPCH) q10() plan.Node {
	o := plan.Filter(plan.Scan("orders", "o"), plan.And(
		plan.Ge(plan.Col("o.orderdate"), plan.DateLit(1993, 10, 1)),
		plan.Lt(plan.Col("o.orderdate"), plan.DateLit(1994, 1, 1)),
	))
	co := plan.Join(plan.Scan("customer", "c"), o, plan.Inner,
		[]string{"c.custkey"}, []string{"o.custkey"})
	l := plan.Filter(plan.Scan("lineitem", "l"),
		plan.Eq(plan.Col("l.returnflag"), plan.Lit(t.Code("lineitem", "returnflag", "R"))))
	col := plan.Join(co, l, plan.Inner, []string{"o.orderkey"}, []string{"l.orderkey"})
	n := plan.Join(col, plan.Scan("nation", "n"), plan.Inner,
		[]string{"c.nationkey"}, []string{"n.nationkey"})
	return plan.Aggregate(n, []string{"c.custkey", "c.name", "c.acctbal", "n.name"},
		plan.Sum(revenue("l"), "revenue"))
}

// Q11: important stock identification.
func (t *TPCH) q11() plan.Node {
	s := plan.Join(plan.Scan("partsupp", "ps"), plan.Scan("supplier", "s"), plan.Inner,
		[]string{"ps.suppkey"}, []string{"s.suppkey"})
	n := plan.Join(s, plan.Filter(plan.Scan("nation", "n"), plan.In("n.name",
		t.Code("nation", "name", "GERMANY"),
		t.Code("nation", "name", "FRANCE"),
		t.Code("nation", "name", "CHINA"),
		t.Code("nation", "name", "CANADA"))),
		plan.Inner, []string{"s.nationkey"}, []string{"n.nationkey"})
	val := plan.F("val", value.Money,
		[]string{"ps.supplycost", "ps.availqty"},
		func(v []int64) int64 { return v[0] * v[1] })
	proj := plan.Project(n, []string{"ps.partkey", "val"},
		[]plan.ValExpr{plan.Col("ps.partkey"), val})
	return plan.Aggregate(proj, []string{"ps.partkey"}, plan.Sum(plan.Col("val"), "value"))
}

// Q12: shipping modes and order priority (case-when as 0/1 measures).
func (t *TPCH) q12() plan.Node {
	l := plan.Filter(plan.Scan("lineitem", "l"), plan.And(
		plan.In("l.shipmode",
			t.Code("lineitem", "shipmode", "MAIL"),
			t.Code("lineitem", "shipmode", "SHIP")),
		plan.Cmp(plan.Col("l.commitdate"), plan.LT, plan.Col("l.receiptdate")),
		plan.Cmp(plan.Col("l.shipdate"), plan.LT, plan.Col("l.commitdate")),
		plan.Ge(plan.Col("l.receiptdate"), plan.DateLit(1994, 1, 1)),
		plan.Lt(plan.Col("l.receiptdate"), plan.DateLit(1995, 1, 1)),
	))
	ol := plan.Join(plan.Scan("orders", "o"), l, plan.Inner,
		[]string{"o.orderkey"}, []string{"l.orderkey"})
	urgent := t.Code("orders", "orderpriority", "1-URGENT")
	high := t.Code("orders", "orderpriority", "2-HIGH")
	highLine := plan.F("high", value.Int, []string{"o.orderpriority"},
		func(v []int64) int64 {
			if v[0] == urgent || v[0] == high {
				return 1
			}
			return 0
		})
	lowLine := plan.F("low", value.Int, []string{"o.orderpriority"},
		func(v []int64) int64 {
			if v[0] == urgent || v[0] == high {
				return 0
			}
			return 1
		})
	return plan.Aggregate(ol, []string{"l.shipmode"},
		plan.Sum(highLine, "high_line_count"),
		plan.Sum(lowLine, "low_line_count"))
}

// Q13: customer distribution — left outer join plus a second aggregation
// level (customers grouped by their order count).
func (t *TPCH) q13() plan.Node {
	o := plan.Filter(plan.Scan("orders", "o"),
		plan.Ne(plan.Col("o.comment"), plan.Lit(t.Code("orders", "comment", "special requests order"))))
	j := plan.Join(plan.Scan("customer", "c"), o, plan.LeftOuter,
		[]string{"c.custkey"}, []string{"o.custkey"})
	perCust := plan.Aggregate(j, []string{"c.custkey"},
		plan.CountCol(plan.Col("o.orderkey"), "c_count"))
	return plan.Aggregate(perCust, []string{"c_count"}, plan.Count("custdist"))
}

// Q14: promotion effect — ratio of two sums over the same join.
func (t *TPCH) q14() plan.Node {
	l := plan.Filter(plan.Scan("lineitem", "l"), plan.And(
		plan.Ge(plan.Col("l.shipdate"), plan.DateLit(1995, 9, 1)),
		plan.Lt(plan.Col("l.shipdate"), plan.DateLit(1995, 10, 1)),
	))
	lp := plan.Join(l, plan.Scan("part", "p"), plan.Inner,
		[]string{"l.partkey"}, []string{"p.partkey"})
	promo := map[int64]bool{}
	for _, ty := range []string{"PROMO ANODIZED TIN", "PROMO BURNISHED COPPER", "PROMO PLATED STEEL"} {
		promo[t.Code("part", "type", ty)] = true
	}
	promoRev := plan.F("promo_rev", value.Money,
		[]string{"p.type", "l.extendedprice", "l.discount"},
		func(v []int64) int64 {
			if promo[v[0]] {
				return v[1] * (100 - v[2]) / 100
			}
			return 0
		})
	agg := plan.Aggregate(lp, nil,
		plan.Sum(promoRev, "promo"),
		plan.Sum(revenue("l"), "total"))
	ratio := plan.F("promo_pct", value.Float, []string{"promo", "total"},
		func(v []int64) int64 {
			if v[1] == 0 {
				return value.FromFloat(0)
			}
			return value.FromFloat(100 * float64(v[0]) / float64(v[1]))
		})
	return plan.Project(agg, []string{"promo_revenue"}, []plan.ValExpr{ratio})
}

// Q15: top supplier — revenue view (grouped lineitem) joined to supplier.
func (t *TPCH) q15() plan.Node {
	l := plan.Filter(plan.Scan("lineitem", "l"), plan.And(
		plan.Ge(plan.Col("l.shipdate"), plan.DateLit(1996, 1, 1)),
		plan.Lt(plan.Col("l.shipdate"), plan.DateLit(1996, 4, 1)),
	))
	rev := plan.Aggregate(l, []string{"l.suppkey"}, plan.Sum(revenue("l"), "total_revenue"))
	j := plan.Join(plan.Scan("supplier", "s"), rev, plan.Inner,
		[]string{"s.suppkey"}, []string{"l.suppkey"})
	return plan.Aggregate(j, nil, plan.Max(plan.Col("total_revenue"), "max_revenue"))
}

// Q16: parts/supplier relationship — anti join against complained-about
// suppliers.
func (t *TPCH) q16() plan.Node {
	p := plan.Filter(plan.Scan("part", "p"), plan.And(
		plan.Ne(plan.Col("p.brand"), plan.Lit(t.Code("part", "brand", "Brand#45"))),
		plan.In("p.size", 1, 4, 7, 14, 23, 36, 45, 49, 3, 9, 19),
	))
	psp := plan.Join(plan.Scan("partsupp", "ps"), p, plan.Inner,
		[]string{"ps.partkey"}, []string{"p.partkey"})
	bad := plan.Filter(plan.Scan("supplier", "s"),
		plan.Eq(plan.Col("s.comment"), plan.Lit(t.Code("supplier", "comment", "Customer Complaints supplier"))))
	anti := plan.Join(psp, bad, plan.Anti, []string{"ps.suppkey"}, []string{"s.suppkey"})
	return plan.Aggregate(anti, []string{"p.brand", "p.type", "p.size"},
		plan.CountDistinct(plan.Col("ps.suppkey"), "supplier_cnt"))
}

// Q17: small-quantity-order revenue (avg-quantity subquery flattened to a
// constant threshold, as the paper's SPJA rewrite requires).
func (t *TPCH) q17() plan.Node {
	p := plan.Filter(plan.Scan("part", "p"), plan.And(
		plan.Eq(plan.Col("p.brand"), plan.Lit(t.Code("part", "brand", "Brand#23"))),
		plan.Eq(plan.Col("p.container"), plan.Lit(t.Code("part", "container", "MED BOX"))),
	))
	lp := plan.Join(plan.Scan("lineitem", "l"), p, plan.Inner,
		[]string{"l.partkey"}, []string{"p.partkey"})
	small := plan.Filter(lp, plan.Lt(plan.Col("l.quantity"), plan.Lit(5)))
	agg := plan.Aggregate(small, nil, plan.Sum(plan.Col("l.extendedprice"), "total"))
	avgYearly := plan.F("avg_yearly", value.Float, []string{"total"},
		func(v []int64) int64 {
			if v[0] == plan.Null {
				return value.FromFloat(0)
			}
			return value.FromFloat(float64(v[0]) / 7)
		})
	return plan.Project(agg, []string{"avg_yearly"}, []plan.ValExpr{avgYearly})
}

// Q18: large volume customer — aggregation with HAVING.
func (t *TPCH) q18() plan.Node {
	co := plan.Join(plan.Scan("customer", "c"), plan.Scan("orders", "o"), plan.Inner,
		[]string{"c.custkey"}, []string{"o.custkey"})
	col := plan.Join(co, plan.Scan("lineitem", "l"), plan.Inner,
		[]string{"o.orderkey"}, []string{"l.orderkey"})
	agg := plan.Aggregate(col, []string{"c.name", "c.custkey", "o.orderkey", "o.orderdate", "o.totalprice"},
		plan.Sum(plan.Col("l.quantity"), "sum_qty"))
	return plan.Filter(agg, plan.Gt(plan.Col("sum_qty"), plan.Lit(160)))
}

// Q19: discounted revenue — equi join on partkey with a disjunctive
// residual over brands/containers/quantities.
func (t *TPCH) q19() plan.Node {
	cond := func(brand string, contA, contB string, qlo, qhi int64) plan.BoolExpr {
		return plan.And(
			plan.Eq(plan.Col("p.brand"), plan.Lit(t.Code("part", "brand", brand))),
			plan.Or(
				plan.Eq(plan.Col("p.container"), plan.Lit(t.Code("part", "container", contA))),
				plan.Eq(plan.Col("p.container"), plan.Lit(t.Code("part", "container", contB))),
			),
			plan.Ge(plan.Col("l.quantity"), plan.Lit(qlo)),
			plan.Le(plan.Col("l.quantity"), plan.Lit(qhi)),
			plan.Le(plan.Col("p.size"), plan.Lit(15)),
		)
	}
	j := &plan.JoinNode{
		Left: plan.Scan("lineitem", "l"), Right: plan.Scan("part", "p"),
		Type:      plan.Inner,
		LeftCols:  []string{"l.partkey"},
		RightCols: []string{"p.partkey"},
		Residual: plan.Or(
			cond("Brand#12", "SM CASE", "SM BOX", 1, 11),
			cond("Brand#23", "MED BAG", "MED BOX", 10, 20),
			cond("Brand#33", "LG CASE", "LG BOX", 20, 30),
		),
	}
	return plan.Aggregate(j, nil, plan.Sum(revenue("l"), "revenue"))
}

// Q20: potential part promotion — nested semi joins.
func (t *TPCH) q20() plan.Node {
	ps := plan.Filter(plan.Scan("partsupp", "ps"), plan.Gt(plan.Col("ps.availqty"), plan.Lit(100)))
	sps := plan.Join(plan.Scan("supplier", "s"), ps, plan.Semi,
		[]string{"s.suppkey"}, []string{"ps.suppkey"})
	n := plan.Join(sps, plan.Filter(plan.Scan("nation", "n"),
		plan.Eq(plan.Col("n.name"), plan.Lit(t.Code("nation", "name", "CANADA")))),
		plan.Inner, []string{"s.nationkey"}, []string{"n.nationkey"})
	return plan.Aggregate(n, nil, plan.Count("supplier_count"))
}

// Q21: suppliers who kept orders waiting — self joins on lineitem with a
// semi (exists) and an anti (not exists) block.
func (t *TPCH) q21() plan.Node {
	l1 := plan.Filter(plan.Scan("lineitem", "l1"),
		plan.Cmp(plan.Col("l1.receiptdate"), plan.GT, plan.Col("l1.commitdate")))
	sl := plan.Join(plan.Scan("supplier", "s"), l1, plan.Inner,
		[]string{"s.suppkey"}, []string{"l1.suppkey"})
	o := plan.Filter(plan.Scan("orders", "o"),
		plan.Eq(plan.Col("o.orderstatus"), plan.Lit(t.Code("orders", "orderstatus", "F"))))
	slo := plan.Join(sl, o, plan.Inner, []string{"l1.orderkey"}, []string{"o.orderkey"})
	// exists another lineitem of the same order from a different supplier
	// (joined through o.orderkey — equal to l1.orderkey in this result —
	// so the locality of the lineitem-orders chain is visible).
	exists := &plan.JoinNode{
		Left: slo, Right: plan.Scan("lineitem", "l2"), Type: plan.Semi,
		LeftCols:  []string{"o.orderkey"},
		RightCols: []string{"l2.orderkey"},
		Residual:  plan.Cmp(plan.Col("l2.suppkey"), plan.NE, plan.Col("l1.suppkey")),
	}
	// and no other supplier was also late on it
	late := plan.Filter(plan.Scan("lineitem", "l3"),
		plan.Cmp(plan.Col("l3.receiptdate"), plan.GT, plan.Col("l3.commitdate")))
	notExists := &plan.JoinNode{
		Left: exists, Right: late, Type: plan.Anti,
		LeftCols:  []string{"o.orderkey"},
		RightCols: []string{"l3.orderkey"},
		Residual:  plan.Cmp(plan.Col("l3.suppkey"), plan.NE, plan.Col("l1.suppkey")),
	}
	n := plan.Join(notExists, plan.Filter(plan.Scan("nation", "n"),
		plan.Eq(plan.Col("n.name"), plan.Lit(t.Code("nation", "name", "SAUDI ARABIA")))),
		plan.Inner, []string{"s.nationkey"}, []string{"n.nationkey"})
	return plan.Aggregate(n, []string{"s.name"}, plan.Count("numwait"))
}

// Q22: global sales opportunity — anti join of customers against orders.
func (t *TPCH) q22() plan.Node {
	c := plan.Filter(plan.Scan("customer", "c"), plan.And(
		plan.In("c.phonecc", 13, 31, 23, 29, 30, 18, 17),
		plan.Gt(plan.Col("c.acctbal"), plan.MoneyLit(0)),
	))
	anti := plan.Join(c, plan.Scan("orders", "o"), plan.Anti,
		[]string{"c.custkey"}, []string{"o.custkey"})
	return plan.Aggregate(anti, []string{"c.phonecc"},
		plan.Count("numcust"), plan.Sum(plan.Col("c.acctbal"), "totacctbal"))
}
