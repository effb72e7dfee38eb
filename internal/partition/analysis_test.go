package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pref/internal/catalog"
	"pref/internal/table"
	"pref/internal/value"
)

// Property: the static analyses are sound against real partitioning —
// whenever DupFree says a table has no duplicates, Apply produces none;
// whenever HashEquivalent claims hash placement, every stored row sits at
// its hash position. Random chains, directions, key multiplicities, and
// orphans.
func TestStaticAnalysesSoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)

		s := catalog.NewSchema("p")
		s.MustAddTable(catalog.MustTable("a",
			[]catalog.Column{{Name: "id", Kind: value.Int}, {Name: "fk", Kind: value.Int}}, "id"))
		s.MustAddTable(catalog.MustTable("b",
			[]catalog.Column{{Name: "id", Kind: value.Int}, {Name: "fk", Kind: value.Int}}, "id"))
		s.MustAddTable(catalog.MustTable("c",
			[]catalog.Column{{Name: "id", Kind: value.Int}, {Name: "fk", Kind: value.Int}}, "id"))

		db := table.NewDatabase(s)
		for i := int64(0); i < 30; i++ {
			db.Tables["a"].MustAppend(value.Tuple{i, rng.Int63n(10)})
			db.Tables["b"].MustAppend(value.Tuple{i, rng.Int63n(35)}) // some orphan fks
			db.Tables["c"].MustAppend(value.Tuple{i, rng.Int63n(35)})
		}

		cfg := NewConfig(n)
		// Seed table a, hashed on either id (unique) or fk (non-unique).
		seedCol := []string{"id", "fk"}[rng.Intn(2)]
		cfg.SetHash("a", seedCol)
		// b PREF on a, referencing either a.id (pk) or a.fk.
		bRef := []string{"id", "fk"}[rng.Intn(2)]
		cfg.SetPref("b", "a", []string{"fk"}, []string{bRef})
		// c PREF on b via b.id (pk) or b.fk.
		cRef := []string{"id", "fk"}[rng.Intn(2)]
		cfg.SetPref("c", "b", []string{"fk"}, []string{cRef})

		pdb, err := Apply(db, cfg)
		if err != nil {
			return false
		}
		for _, tbl := range []string{"b", "c"} {
			if cfg.DupFree(s, tbl) && pdb.Tables[tbl].DuplicateRows() != 0 {
				return false
			}
			if cols, ok := cfg.HashEquivalent(tbl); ok {
				idx, err := pdb.Tables[tbl].Meta.ColIndexes(cols)
				if err != nil {
					return false
				}
				for p, part := range pdb.Tables[tbl].Parts {
					for _, r := range part.Rows() {
						if int(value.HashTuple(r, idx)%uint64(n)) != p {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDupFreeRules(t *testing.T) {
	s := catalog.NewSchema("t")
	s.MustAddTable(catalog.MustTable("parent",
		[]catalog.Column{{Name: "pk", Kind: value.Int}, {Name: "attr", Kind: value.Int}}, "pk"))
	s.MustAddTable(catalog.MustTable("child",
		[]catalog.Column{{Name: "id", Kind: value.Int}, {Name: "ref", Kind: value.Int}}, "id"))

	cases := []struct {
		name string
		cfg  func() *Config
		want bool
	}{
		{"hash", func() *Config {
			c := NewConfig(4)
			c.SetHash("child", "id")
			return c
		}, true},
		{"pref-on-pk", func() *Config {
			c := NewConfig(4)
			c.SetHash("parent", "attr")
			c.SetPref("child", "parent", []string{"ref"}, []string{"pk"})
			return c
		}, true},
		{"pref-on-nonkey", func() *Config {
			c := NewConfig(4)
			c.SetHash("parent", "pk")
			c.SetPref("child", "parent", []string{"ref"}, []string{"attr"})
			return c
		}, false},
		{"replicated", func() *Config {
			c := NewConfig(4)
			c.SetReplicated("child")
			return c
		}, false},
	}
	for _, tc := range cases {
		if got := tc.cfg().DupFree(s, "child"); got != tc.want {
			t.Errorf("%s: DupFree = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Unknown table.
	if NewConfig(2).DupFree(s, "nope") {
		t.Error("unknown table must not be dup-free")
	}
}

func TestHashEquivalentComposite(t *testing.T) {
	s := catalog.NewSchema("t")
	s.MustAddTable(catalog.MustTable("ps",
		[]catalog.Column{{Name: "pk1", Kind: value.Int}, {Name: "pk2", Kind: value.Int}}, "pk1", "pk2"))
	s.MustAddTable(catalog.MustTable("l",
		[]catalog.Column{{Name: "id", Kind: value.Int}, {Name: "a", Kind: value.Int}, {Name: "b", Kind: value.Int}}, "id"))
	cfg := NewConfig(4)
	cfg.SetHash("ps", "pk1", "pk2")
	cfg.SetPref("l", "ps", []string{"a", "b"}, []string{"pk1", "pk2"})
	cols, ok := cfg.HashEquivalent("l")
	if !ok || len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("composite hash-equivalence = %v %v", cols, ok)
	}
	// Partial coverage: hash cols not fully inside the predicate.
	cfg2 := NewConfig(4)
	cfg2.SetHash("ps", "pk1", "pk2")
	cfg2.SetPref("l", "ps", []string{"a"}, []string{"pk1"})
	if _, ok := cfg2.HashEquivalent("l"); ok {
		t.Fatal("partial key coverage must not be hash-equivalent")
	}
}
