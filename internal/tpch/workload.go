package tpch

import (
	"strings"

	"pref/internal/design"
	"pref/internal/graph"
	"pref/internal/plan"
	"pref/internal/table"
)

// Workload returns the join graphs of the 22 TPC-H queries for the
// workload-driven design algorithm (Section 4.1), read off the plans
// themselves: each query is built over an empty database and abstracted
// by joinGraph, so the graphs cannot drift from the queries that run.
func Workload() (w []design.Query) {
	t := &TPCH{DB: table.NewDatabase(Schema())}
	for _, name := range QueryNames {
		w = append(w, joinGraph(name, t.Query(name)))
	}
	return w
}

// joinGraph abstracts a plan to its tables and equi-join predicates. Joins
// are visited children first, left before right. Each key pair and each
// col = col conjunct of a residual relates two aliases, and the pairs one
// join states between the same two aliases form one edge (a composite
// key). Aliases collapse onto their tables (the paper does not duplicate
// nodes), so an edge seen before in either orientation is kept once and
// one between two aliases of a table is dropped; non-equi predicates are
// omitted by construction. A plan without an equi-join edge lists the
// tables it scans.
func joinGraph(name string, root plan.Node) design.Query {
	q := design.Query{Name: name}
	tableOf := map[string]string{} // alias → table
	kept := map[string]bool{}      // graph.Edge IDs
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		for _, c := range n.Children() {
			walk(c)
		}
		switch n := n.(type) {
		case *plan.ScanNode:
			tableOf[n.Alias] = n.Table
			q.Tables = append(q.Tables, n.Table)
		case *plan.JoinNode:
			pairs := make([][2]string, len(n.LeftCols))
			for i := range pairs {
				pairs[i] = [2]string{n.LeftCols[i], n.RightCols[i]}
			}
			var edges []*graph.Edge
			at := map[[2]string]*graph.Edge{} // alias pair → its edge
			for _, p := range append(pairs, plan.ColumnEqualities(n.Residual)...) {
				a, ca, _ := strings.Cut(p[0], ".")
				b, cb, _ := strings.Cut(p[1], ".")
				if at[[2]string{b, a}] != nil {
					a, ca, b, cb = b, cb, a, ca
				}
				e := at[[2]string{a, b}]
				if e == nil {
					e = &graph.Edge{A: tableOf[a], B: tableOf[b]}
					at[[2]string{a, b}] = e
					edges = append(edges, e)
				}
				e.ACols, e.BCols = append(e.ACols, ca), append(e.BCols, cb)
			}
			for _, e := range edges {
				if e.A != e.B && !kept[e.ID()] {
					kept[e.ID()] = true
					q.Joins = append(q.Joins, design.QueryJoin{TableA: e.A, ColsA: e.ACols, TableB: e.B, ColsB: e.BCols})
				}
			}
		}
	}
	walk(root)
	if len(q.Joins) > 0 {
		q.Tables = nil
	}
	return q
}
