package check_test

import (
	"context"
	"reflect"
	"testing"

	"pref/internal/catalog"
	"pref/internal/check"
	"pref/internal/engine"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/value"
)

// Covers. A four-table PREF chain: line is hashed, mid is PREF on line by
// both of line's reference columns, top is PREF on mid by the first of
// them, and up is PREF on top. With the foreign keys declared, every line
// row has its mid partner on its partition and every mid row its top
// partner, so top covers line by t_b = l_a1 (one hop), and up covers mid
// by u_x = m_d1 (one hop) and line by u_x = l_a1 (two hops). Each table has
// rows with no partner down the chain.

// chainSchema is the chain's catalog, with or without its foreign keys.
func chainSchema(t *testing.T, fks bool) *catalog.Schema {
	t.Helper()
	col := func(name string) catalog.Column { return catalog.Column{Name: name, Kind: value.Int} }
	s := catalog.NewSchema("chain")
	s.MustAddTable(catalog.MustTable("line", []catalog.Column{col("l_id"), col("l_a1"), col("l_a2"), col("l_v")}, "l_id"))
	s.MustAddTable(catalog.MustTable("mid", []catalog.Column{col("m_d1"), col("m_d2"), col("m_e"), col("m_v")}, "m_d1", "m_d2"))
	s.MustAddTable(catalog.MustTable("top", []catalog.Column{col("t_b"), col("t_v")}, "t_b"))
	s.MustAddTable(catalog.MustTable("up", []catalog.Column{col("u_id"), col("u_x"), col("u_v")}, "u_id"))
	if fks {
		s.MustAddFK(catalog.ForeignKey{Name: "fk_line_mid", FromTable: "line", FromCols: []string{"l_a1", "l_a2"},
			ToTable: "mid", ToCols: []string{"m_d1", "m_d2"}, ToIsUnique: true})
		s.MustAddFK(catalog.ForeignKey{Name: "fk_mid_top", FromTable: "mid", FromCols: []string{"m_d1"},
			ToTable: "top", ToCols: []string{"t_b"}, ToIsUnique: true})
	}
	return s
}

// chainCfg places the chain on four partitions; topBy is the mid column
// top is PREF on.
func chainCfg(t *testing.T, sch *catalog.Schema, topBy string) *partition.Config {
	t.Helper()
	cfg := partition.NewConfig(4)
	cfg.SetHash("line", "l_id")
	cfg.SetPref("mid", "line", []string{"m_d1", "m_d2"}, []string{"l_a1", "l_a2"})
	cfg.SetPref("top", "mid", []string{"t_b"}, []string{topBy})
	cfg.SetPref("up", "top", []string{"u_x"}, []string{"t_b"})
	if err := cfg.Validate(sch); err != nil {
		t.Fatalf("fixture config invalid: %v", err)
	}
	return cfg
}

// chainDB honours both foreign keys. mid keys 10 and 11 and top keys 12
// and 13 have no partner down the chain, nor do the up rows of key 12; up
// names every third key only, so some line rows have no up partner. m_e
// equals m_d1.
func chainDB(sch *catalog.Schema) *table.Database {
	db := table.NewDatabase(sch)
	for i := int64(0); i < 60; i++ {
		db.Tables["line"].MustAppend(value.Tuple{i, i * 7 % 10, i % 4, i})
	}
	for d1 := int64(0); d1 < 12; d1++ {
		for d2 := int64(0); d2 < 4; d2++ {
			db.Tables["mid"].MustAppend(value.Tuple{d1, d2, d1, 10*d1 + d2})
		}
	}
	for b := int64(0); b < 14; b++ {
		db.Tables["top"].MustAppend(value.Tuple{b, 100 + b})
	}
	for j := int64(0); j < 40; j++ {
		db.Tables["up"].MustAppend(value.Tuple{j, j * 3 % 15, j})
	}
	return db
}

func TestCoversComposeAlongTheChain(t *testing.T) {
	sch := chainSchema(t, true)
	got := chainCfg(t, sch, "m_d1").Covers(sch)
	pred := func(ring, refd string) partition.Predicate {
		return partition.Predicate{ReferencingCols: []string{ring}, ReferencedCols: []string{refd}}
	}
	want := map[string][]partition.Cover{
		"top": {{Table: "line", Pred: pred("t_b", "l_a1")}},
		"up":  {{Table: "mid", Pred: pred("u_x", "m_d1")}, {Table: "line", Pred: pred("u_x", "l_a1")}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("covers %v, want %v", got, want)
	}
	for _, c := range []struct {
		name  string
		sch   *catalog.Schema
		topBy string
	}{{"no foreign key", chainSchema(t, false), "m_d1"}, {"off mid's PREF columns", sch, "m_e"}} {
		if got := chainCfg(t, c.sch, c.topBy).Covers(c.sch); len(got) != 0 {
			t.Errorf("%s: covers %v, want none", c.name, got)
		}
	}
}

// TestCoverJoinsRunLocally: a join on a cover's predicate runs with no
// exchange below it exactly where the cover holds and the join type lets
// it, and every plan answers what one node answers.
func TestCoverJoinsRunLocally(t *testing.T) {
	line, mid, top, up := plan.Scan("line", "l"), plan.Scan("mid", "m"), plan.Scan("top", "t"), plan.Scan("up", "u")
	cases := []struct {
		name  string
		fks   bool
		topBy string
		q     plan.Node
		local bool
	}{
		{name: "one hop", fks: true, topBy: "m_d1", local: true,
			q: plan.Join(plan.Filter(line, plan.Lt(plan.Col("l.l_v"), plan.Lit(40))), top, plan.Inner, []string{"l.l_a1"}, []string{"t.t_b"})},
		{name: "one hop, covering side left", fks: true, topBy: "m_d1", local: true,
			q: plan.Join(top, line, plan.Inner, []string{"t.t_b"}, []string{"l.l_a1"})},
		{name: "two hops", fks: true, topBy: "m_d1", local: true,
			q: plan.Join(line, up, plan.Inner, []string{"l.l_a1"}, []string{"u.u_x"})},
		{name: "one hop from the middle", fks: true, topBy: "m_d1", local: true,
			q: plan.Join(mid, up, plan.Inner, []string{"m.m_d1"}, []string{"u.u_x"})},
		{name: "semi, covered side out", fks: true, topBy: "m_d1", local: true,
			q: plan.Join(line, up, plan.Semi, []string{"l.l_a1"}, []string{"u.u_x"})},
		{name: "no foreign key", fks: false, topBy: "m_d1",
			q: plan.Join(line, top, plan.Inner, []string{"l.l_a1"}, []string{"t.t_b"})},
		{name: "off mid's PREF columns", fks: true, topBy: "m_e",
			q: plan.Join(line, top, plan.Inner, []string{"l.l_a1"}, []string{"t.t_b"})},
		{name: "anti", fks: true, topBy: "m_d1",
			q: plan.Join(line, up, plan.Anti, []string{"l.l_a1"}, []string{"u.u_x"})},
		{name: "left outer", fks: true, topBy: "m_d1",
			q: plan.Join(line, up, plan.LeftOuter, []string{"l.l_a1"}, []string{"u.u_x"})},
		{name: "hasRef semi", fks: true, topBy: "m_d1",
			q: plan.Join(top, line, plan.Semi, []string{"t.t_b"}, []string{"l.l_a1"})},
		{name: "hasRef anti", fks: true, topBy: "m_d1",
			q: plan.Join(up, line, plan.Anti, []string{"u.u_x"}, []string{"l.l_a1"})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sch := chainSchema(t, c.fks)
			cfg := chainCfg(t, sch, c.topBy)
			db := chainDB(sch)
			pdb, err := partition.Apply(db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := check.VerifyStore(pdb, cfg); err != nil {
				t.Fatal(err)
			}
			for _, opt := range []plan.Options{{}, {Stats: plan.GatherStats(pdb)}} {
				rw, err := plan.Rewrite(c.q, sch, cfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				j, _ := findNode(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.JoinNode); return ok }).(*plan.JoinNode)
				if j == nil {
					t.Fatalf("the join became a hasRef filter, whose bits name the direct referenced table:\n%s", rw.Explain())
				}
				if local := findNode(j, isShuffle) == nil; local != c.local {
					t.Errorf("stats %v: join local = %v, want %v\n%s", opt.Stats != nil, local, c.local, rw.Explain())
				}
				got, err := engine.ExecuteCtx(context.Background(), rw, pdb, engine.ExecOptions{Verify: true})
				if err != nil {
					t.Fatalf("%v\n%s", err, rw.Explain())
				}
				got.SortRows()
				if want := oneNode(t, c.q, sch, db); !reflect.DeepEqual(got.Rows, want) {
					t.Errorf("stats %v: got %v, one node %v\n%s", opt.Stats != nil, got.Rows, want, rw.Explain())
				}
			}
		})
	}
}

// TestVerifyWalksTheChainItself: the verifier derives covers on its own.
// The local plan of a cover join fails verification under a catalog that
// lacks the foreign key, or once its join is turned into an anti join.
func TestVerifyWalksTheChainItself(t *testing.T) {
	sch := chainSchema(t, true)
	cfg := chainCfg(t, sch, "m_d1")
	q := plan.Join(plan.Scan("line", "l"), plan.Scan("up", "u"), plan.Inner, []string{"l.l_a1"}, []string{"u.u_x"})
	local := func() (*plan.Rewritten, *plan.JoinNode) {
		rw := mustRewrite(t, q, sch, cfg)
		j, _ := findNode(rw.Root, func(n plan.Node) bool { _, ok := n.(*plan.JoinNode); return ok }).(*plan.JoinNode)
		if j == nil || findNode(j, isShuffle) != nil {
			t.Fatalf("fixture drift: the two-hop join is not local:\n%s", rw.Explain())
		}
		if err := check.Verify(rw); err != nil {
			t.Fatal(err)
		}
		return rw, j
	}
	rw, j := local()
	rw.Catalog = chainSchema(t, false)
	expectLocality(t, rw, j)
	rw, j = local()
	j.Type = plan.Anti
	expectLocality(t, rw, j)
}

// expectLocality asserts Verify reports a locality violation at n.
func expectLocality(t *testing.T, rw *plan.Rewritten, n plan.Node) {
	t.Helper()
	for _, v := range check.ViolationsOf(check.Verify(rw)) {
		if v.Rule == check.RuleLocality && v.Node == n {
			return
		}
	}
	t.Errorf("want a %s violation at %s\n%s", check.RuleLocality, n, rw.Explain())
}

func isShuffle(n plan.Node) bool {
	switch n.(type) {
	case *plan.RepartitionNode, *plan.BroadcastNode:
		return true
	}
	return false
}

// oneNode answers q on one partition, rows sorted.
func oneNode(t *testing.T, q plan.Node, sch *catalog.Schema, db *table.Database) []value.Tuple {
	t.Helper()
	one := partition.NewConfig(1)
	for _, name := range sch.TableNames() {
		one.SetHash(name, sch.Table(name).Columns[0].Name)
	}
	pdb, err := partition.Apply(db, one)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ExecuteCtx(context.Background(), mustRewrite(t, q, sch, one), pdb, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("fixture drift: one node answers no rows")
	}
	res.SortRows()
	return res.Rows
}
