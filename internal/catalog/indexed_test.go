package catalog_test

import (
	"strings"
	"testing"

	"pref/internal/tpch"
)

// TestTPCHKeyIndexedColumns pins the columns of TPC-H that carry a key index:
// the leading column of each primary key and every column of each declared
// foreign key. lineitem.suppkey is the one that leads no key: it is the
// second column of lineitem's compound foreign key to partsupp, and TPC-H
// declares it a foreign key to supplier as well.
func TestTPCHKeyIndexedColumns(t *testing.T) {
	s := tpch.Schema()
	var got []string
	for _, tbl := range s.Tables() {
		for _, c := range tbl.Columns {
			if s.KeyIndexed(tbl, c.Name) {
				got = append(got, tbl.Name+"."+c.Name)
			}
		}
	}
	want := []string{
		"region.regionkey",
		"nation.nationkey", "nation.regionkey",
		"supplier.suppkey", "supplier.nationkey",
		"customer.custkey", "customer.nationkey",
		"part.partkey",
		"partsupp.partkey", "partsupp.suppkey",
		"orders.orderkey", "orders.custkey",
		"lineitem.orderkey", "lineitem.partkey", "lineitem.suppkey",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("key-indexed columns:\n got %v\nwant %v", got, want)
	}
}
