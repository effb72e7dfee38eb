package bulkload

import (
	"math/rand"
	"slices"
	"testing"

	"pref/internal/partition"
	"pref/internal/table"
	"pref/internal/value"
)

// genPlacement draws a partition count, one scheme per table of the
// customer → orders → lineitem schema and rows for all three from a seed.
// Each table is hashed, round-robin, range or replicated on one of its
// columns, and orders and customer may instead be PREF on the table below
// them. Keys come from a small domain, so PREF tables get duplicates and
// orphans, and a PREF table over a hash on its predicate column is
// hash-equivalent.
func genPlacement(t *testing.T, seed int64) (*table.Database, *partition.Config) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(5)
	keys := int64(n + rng.Intn(30))
	cfg := partition.NewConfig(n)
	db := table.NewDatabase(schemaCOL(t))
	for _, tbl := range []struct {
		name, ref string
		cols      [2]string
	}{
		{"lineitem", "", [2]string{"linekey", "orderkey"}},
		{"orders", "lineitem", [2]string{"orderkey", "custkey"}},
		{"customer", "orders", [2]string{"custkey", "nation"}},
	} {
		ts := &partition.TableScheme{Table: tbl.name, Cols: []string{tbl.cols[rng.Intn(2)]}}
		switch k := rng.Intn(5); {
		case k == 4 && tbl.ref != "":
			// tbl's first column joins the same-named column of the
			// table it references.
			ts.Method, ts.Cols, ts.RefTable = partition.Pref, nil, tbl.ref
			ts.Pred = partition.Predicate{ReferencingCols: tbl.cols[:1], ReferencedCols: tbl.cols[:1]}
		case k == 1:
			ts.Method, ts.Cols = partition.RoundRobin, nil
		case k == 2:
			ts.Method = partition.Range
			for _, b := range rng.Perm(int(keys))[:n-1] {
				ts.Bounds = append(ts.Bounds, int64(b))
			}
			slices.Sort(ts.Bounds)
		case k == 3:
			ts.Method, ts.Cols = partition.Replicated, nil
		default:
			ts.Method = partition.Hash
		}
		cfg.Set(ts)
		for i, m := 0, rng.Intn(40); i < m; i++ {
			db.Tables[tbl.name].MustAppend(value.Tuple{rng.Int63n(keys), rng.Int63n(keys)})
		}
	}
	return db, cfg
}

// FuzzPlacementParity holds the offline partitioner and the bulk loader to
// one placement over generated scheme mixes: partition.Apply and a loader
// filling the empty store of the same configuration must build
// byte-identical stores, and both must pass check.VerifyStore.
//
//	go test -run='^$' -fuzz=FuzzPlacementParity -fuzztime=15s ./internal/bulkload
func FuzzPlacementParity(f *testing.F) {
	// testdata/fuzz holds the seed corpus: one seed per PREF placement
	// the two paths could disagree on — round-robin orphans, hash-
	// equivalent orphans, a PREF chain over a range-partitioned and over a
	// replicated table.
	f.Add(int64(0))
	f.Fuzz(func(t *testing.T, seed int64) {
		db, cfg := genPlacement(t, seed)
		offline, err := partition.Apply(db, cfg)
		if err != nil {
			t.Fatalf("apply %v: %v", cfg, err)
		}
		loaded := emptyPDB(t, db, cfg)
		if _, err := NewLoader(loaded, cfg).LoadDatabase(db); err != nil {
			t.Fatalf("load %v: %v", cfg, err)
		}
		sameStore(t, cfg, offline, loaded)
	})
}
