// Quickstart: define a small schema, PREF-partition it, and run a
// co-located join — no remote data movement for the join, one shuffle
// avoided for the aggregation.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pref"
)

func main() {
	// A two-table shop: users 1—N orders.
	s := pref.NewSchema("shop")
	s.MustAddTable(pref.MustTable("users", []pref.Column{
		{Name: "uid", Kind: pref.Int},
		{Name: "name", Kind: pref.Str},
		{Name: "country", Kind: pref.Str},
	}, "uid"))
	s.MustAddTable(pref.MustTable("orders", []pref.Column{
		{Name: "oid", Kind: pref.Int},
		{Name: "uid", Kind: pref.Int},
		{Name: "amount", Kind: pref.Money},
	}, "oid"))
	s.MustAddFK(pref.ForeignKey{
		Name: "fk_orders_users", FromTable: "orders", FromCols: []string{"uid"},
		ToTable: "users", ToCols: []string{"uid"}, ToIsUnique: true,
	})

	// Load some data.
	db := pref.NewDatabase(s)
	names := s.Table("users").Dict("name")
	countries := s.Table("users").Dict("country")
	for i := int64(0); i < 1000; i++ {
		db.Tables["users"].MustAppend(pref.Tuple{
			i, names.Code(fmt.Sprintf("user-%d", i)), countries.Code([]string{"DE", "US", "JP"}[i%3]),
		})
	}
	for i := int64(0); i < 8000; i++ {
		db.Tables["orders"].MustAppend(pref.Tuple{i, i % 1000, pref.FromMoney(float64(i%500) + 0.99)})
	}

	// Partition for a 4-node cluster: users hashed on uid, orders
	// PREF-partitioned by users on the join predicate — every order lands
	// with its user.
	cfg := pref.NewConfig(4)
	cfg.SetHash("users", "uid")
	cfg.SetPref("orders", "users", []string{"uid"}, []string{"uid"})
	pdb, err := pref.Apply(db, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned: users %d rows, orders %d rows (%d duplicates from PREF)\n",
		pdb.Tables["users"].StoredRows(), pdb.Tables["orders"].StoredRows(),
		pdb.Tables["orders"].DuplicateRows())

	// Revenue per country: the users⋈orders join is fully local.
	q := pref.Aggregate(
		pref.Join(pref.Scan("users", "u"), pref.Scan("orders", "o"),
			pref.Inner, []string{"u.uid"}, []string{"o.uid"}),
		[]string{"u.country"},
		pref.Sum(pref.Col("o.amount"), "revenue"),
		pref.Count("orders"),
	)
	res, err := pref.Run(q, s, cfg, pdb)
	if err != nil {
		log.Fatal(err)
	}
	res.SortRows()
	fmt.Println("\ncountry  revenue        orders")
	for _, row := range res.Rows {
		fmt.Printf("%-8s $%-12.2f %d\n",
			countries.String(row[0]), pref.ToMoney(row[1]), row[2])
	}
	// The users⋈orders join ran node-local thanks to PREF co-partitioning;
	// the single shuffle below is the final group-by on country.
	fmt.Printf("\nnetwork: %d bytes shipped, %d repartition (the group-by; the join was local)\n",
		res.Stats.BytesShipped, res.Stats.Repartitions)

	// Contrast: hash both tables on their primary keys and the join
	// itself must ship rows (the priced rewrite broadcasts users).
	naive := pref.NewConfig(4)
	naive.SetHash("users", "uid")
	naive.SetHash("orders", "oid")
	npdb, err := pref.Apply(db, naive)
	if err != nil {
		log.Fatal(err)
	}
	nres, err := pref.Run(q, s, naive, npdb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive hash-by-pk:  %d bytes shipped, %d repartition, %d broadcast\n",
		nres.Stats.BytesShipped, nres.Stats.Repartitions, nres.Stats.Broadcasts)
}
