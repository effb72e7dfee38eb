// Package tpch is a from-scratch TPC-H substrate: the full 8-table schema
// with referential constraints, a deterministic scale-factor generator
// with dbgen-compatible cardinality ratios and key distributions, all 22
// benchmark queries as executable SPJA plans, and the workload join graphs
// the workload-driven design algorithm consumes, derived from those plans.
//
// Deviations from the official kit (documented in DESIGN.md): string
// columns are dictionary-encoded; ORDER BY/LIMIT clauses are dropped
// (they do not affect the partitioning behaviour the paper measures);
// correlated subqueries are flattened into structurally equivalent SPJA
// blocks; and customer carries an explicit phone country-code column so
// Q22's substring predicate stays a plain column filter.
package tpch

import (
	"pref/internal/catalog"
	"pref/internal/value"
)

// Schema returns the TPC-H schema with all referential constraints.
func Schema() *catalog.Schema {
	s := catalog.NewSchema("tpch")

	s.MustAddTable(catalog.MustTable("region", []catalog.Column{
		{Name: "regionkey", Kind: value.Int},
		{Name: "name", Kind: value.Str},
		{Name: "comment", Kind: value.Str},
	}, "regionkey"))

	s.MustAddTable(catalog.MustTable("nation", []catalog.Column{
		{Name: "nationkey", Kind: value.Int},
		{Name: "name", Kind: value.Str},
		{Name: "regionkey", Kind: value.Int},
		{Name: "comment", Kind: value.Str},
	}, "nationkey"))

	s.MustAddTable(catalog.MustTable("supplier", []catalog.Column{
		{Name: "suppkey", Kind: value.Int},
		{Name: "name", Kind: value.Str},
		{Name: "address", Kind: value.Str},
		{Name: "nationkey", Kind: value.Int},
		{Name: "phone", Kind: value.Str},
		{Name: "acctbal", Kind: value.Money},
		{Name: "comment", Kind: value.Str},
	}, "suppkey"))

	s.MustAddTable(catalog.MustTable("customer", []catalog.Column{
		{Name: "custkey", Kind: value.Int},
		{Name: "name", Kind: value.Str},
		{Name: "address", Kind: value.Str},
		{Name: "nationkey", Kind: value.Int},
		{Name: "phone", Kind: value.Str},
		{Name: "phonecc", Kind: value.Int}, // phone country code (Q22)
		{Name: "acctbal", Kind: value.Money},
		{Name: "mktsegment", Kind: value.Str},
		{Name: "comment", Kind: value.Str},
	}, "custkey"))

	s.MustAddTable(catalog.MustTable("part", []catalog.Column{
		{Name: "partkey", Kind: value.Int},
		{Name: "name", Kind: value.Str},
		{Name: "mfgr", Kind: value.Str},
		{Name: "brand", Kind: value.Str},
		{Name: "type", Kind: value.Str},
		{Name: "size", Kind: value.Int},
		{Name: "container", Kind: value.Str},
		{Name: "retailprice", Kind: value.Money},
		{Name: "comment", Kind: value.Str},
	}, "partkey"))

	s.MustAddTable(catalog.MustTable("partsupp", []catalog.Column{
		{Name: "partkey", Kind: value.Int},
		{Name: "suppkey", Kind: value.Int},
		{Name: "availqty", Kind: value.Int},
		{Name: "supplycost", Kind: value.Money},
		{Name: "comment", Kind: value.Str},
	}, "partkey", "suppkey"))

	s.MustAddTable(catalog.MustTable("orders", []catalog.Column{
		{Name: "orderkey", Kind: value.Int},
		{Name: "custkey", Kind: value.Int},
		{Name: "orderstatus", Kind: value.Str},
		{Name: "totalprice", Kind: value.Money},
		{Name: "orderdate", Kind: value.Date},
		{Name: "orderpriority", Kind: value.Str},
		{Name: "clerk", Kind: value.Str},
		{Name: "shippriority", Kind: value.Int},
		{Name: "comment", Kind: value.Str},
	}, "orderkey"))

	s.MustAddTable(catalog.MustTable("lineitem", []catalog.Column{
		{Name: "orderkey", Kind: value.Int},
		{Name: "partkey", Kind: value.Int},
		{Name: "suppkey", Kind: value.Int},
		{Name: "linenumber", Kind: value.Int},
		{Name: "quantity", Kind: value.Int},
		{Name: "extendedprice", Kind: value.Money},
		{Name: "discount", Kind: value.Int}, // percent 0..10
		{Name: "tax", Kind: value.Int},      // percent 0..8
		{Name: "returnflag", Kind: value.Str},
		{Name: "linestatus", Kind: value.Str},
		{Name: "shipdate", Kind: value.Date},
		{Name: "commitdate", Kind: value.Date},
		{Name: "receiptdate", Kind: value.Date},
		{Name: "shipinstruct", Kind: value.Str},
		{Name: "shipmode", Kind: value.Str},
		{Name: "comment", Kind: value.Str},
	}, "orderkey", "linenumber"))

	fks := []catalog.ForeignKey{
		{Name: "fk_nation_region", FromTable: "nation", FromCols: []string{"regionkey"}, ToTable: "region", ToCols: []string{"regionkey"}, ToIsUnique: true},
		{Name: "fk_supplier_nation", FromTable: "supplier", FromCols: []string{"nationkey"}, ToTable: "nation", ToCols: []string{"nationkey"}, ToIsUnique: true},
		{Name: "fk_customer_nation", FromTable: "customer", FromCols: []string{"nationkey"}, ToTable: "nation", ToCols: []string{"nationkey"}, ToIsUnique: true},
		{Name: "fk_partsupp_part", FromTable: "partsupp", FromCols: []string{"partkey"}, ToTable: "part", ToCols: []string{"partkey"}, ToIsUnique: true},
		{Name: "fk_partsupp_supplier", FromTable: "partsupp", FromCols: []string{"suppkey"}, ToTable: "supplier", ToCols: []string{"suppkey"}, ToIsUnique: true},
		{Name: "fk_orders_customer", FromTable: "orders", FromCols: []string{"custkey"}, ToTable: "customer", ToCols: []string{"custkey"}, ToIsUnique: true},
		{Name: "fk_lineitem_orders", FromTable: "lineitem", FromCols: []string{"orderkey"}, ToTable: "orders", ToCols: []string{"orderkey"}, ToIsUnique: true},
		{Name: "fk_lineitem_partsupp", FromTable: "lineitem", FromCols: []string{"partkey", "suppkey"}, ToTable: "partsupp", ToCols: []string{"partkey", "suppkey"}, ToIsUnique: true},
	}
	for _, fk := range fks {
		s.MustAddFK(fk)
	}
	return s
}

// SmallTables lists the tables the paper's "wo small tables" variants
// replicate and exclude from automated design (Section 5.1).
func SmallTables() []string { return []string{"nation", "region", "supplier"} }
