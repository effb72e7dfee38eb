package bench

import (
	"strings"
	"testing"

	"pref/internal/tpcds"
	"pref/internal/tpch"
)

func smallParams() Params {
	p := DefaultParams()
	p.SF = 0.002
	p.DSSF = 0.3
	p.Parts = 4
	return p
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	// Replication-based CP has full locality; so do SD and WD.
	for _, v := range []string{"CP", "SD", "WD"} {
		dl, ok := r.Value(v, "DL")
		if !ok || dl < 0.99 {
			t.Errorf("%s DL = %v, want 1.0", v, dl)
		}
	}
	// SD-noRed trades locality for zero redundancy.
	dl, _ := r.Value("SD-noRed", "DL")
	if dl >= 0.999 {
		t.Errorf("SD-noRed DL = %v, want < 1", dl)
	}
	drNoRed, _ := r.Value("SD-noRed", "DR")
	drSD, _ := r.Value("SD", "DR")
	drCP, _ := r.Value("CP", "DR")
	if drNoRed > drSD {
		t.Errorf("DR(SD-noRed)=%v should be ≤ DR(SD)=%v", drNoRed, drSD)
	}
	if drSD > drCP {
		t.Errorf("DR(SD)=%v should be ≤ DR(CP)=%v (paper: 0.5 vs 1.21)", drSD, drCP)
	}
	if drNoRed > 0.01 {
		t.Errorf("DR(SD-noRed)=%v, want ≈ 0", drNoRed)
	}
}

func TestFig7Shape(t *testing.T) {
	// The headline comparison needs the realistic regime: 10 nodes and
	// enough data that per-node volume (which replication inflates)
	// matters; see the cost-model notes in EXPERIMENTS.md.
	p := DefaultParams()
	p.SF = 0.005
	r, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	simOf := func(v string) float64 {
		x, ok := r.Value(v, "sim_ms")
		if !ok {
			t.Fatalf("missing %s", v)
		}
		return x
	}
	// The paper's headline: the PREF-based designs beat classical
	// partitioning.
	if simOf("WD") >= simOf("CP") {
		t.Errorf("WD (%v ms) should beat CP (%v ms)", simOf("WD"), simOf("CP"))
	}
	if simOf("SD-paper") >= simOf("CP") {
		t.Errorf("SD-paper (%v ms) should beat CP (%v ms)", simOf("SD-paper"), simOf("CP"))
	}
	// Our size-optimal SD trades some execution time for less storage;
	// it must stay in CP's ballpark (the paper's own SD config wins
	// outright, asserted above).
	if simOf("SD") > 1.3*simOf("CP") {
		t.Errorf("SD (%v ms) should be within 1.3x of CP (%v ms)", simOf("SD"), simOf("CP"))
	}
}

func TestFig8CoversAllQueries(t *testing.T) {
	r, err := Fig8(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(tpch.QueryNames) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(tpch.QueryNames))
	}
	for _, row := range r.Rows {
		if len(row.Values) != 5 {
			t.Fatalf("%s has %d values", row.Label, len(row.Values))
		}
	}
}

func TestFig9OptimizationsWin(t *testing.T) {
	r, err := Fig9(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"distinct", "semi_join", "anti_join"} {
		speedup, ok := r.Value(c, "speedup")
		if !ok {
			t.Fatalf("missing case %s", c)
		}
		if speedup <= 1 {
			t.Errorf("%s: optimization speedup = %v, want > 1", c, speedup)
		}
	}
}

func TestFig10LoadsEveryVariant(t *testing.T) {
	r, err := Fig10(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range execVariants {
		rows, ok := r.Value(v, "stored_rows")
		if !ok || rows <= 0 {
			t.Errorf("%s stored %v rows", v, rows)
		}
	}
	// PREF-based variants use the partition index.
	if l, _ := r.Value("SD", "index_lookups"); l == 0 {
		t.Error("SD load should perform index lookups")
	}
	if l, _ := r.Value("CP", "index_lookups"); l != 0 {
		t.Error("CP load (hash+replication only) needs no lookups")
	}
}

func TestFig11aBaselines(t *testing.T) {
	p := smallParams()
	r, err := Fig11a(p)
	if err != nil {
		t.Fatal(err)
	}
	if dl, _ := r.Value("AllHashed", "DL"); dl != 0 {
		t.Errorf("AllHashed DL = %v, want 0", dl)
	}
	if dr, _ := r.Value("AllHashed", "DR"); dr != 0 {
		t.Errorf("AllHashed DR = %v, want 0", dr)
	}
	if dl, _ := r.Value("AllReplicated", "DL"); dl != 1 {
		t.Errorf("AllReplicated DL = %v, want 1", dl)
	}
	if dr, _ := r.Value("AllReplicated", "DR"); dr != float64(p.Parts-1) {
		t.Errorf("AllReplicated DR = %v, want n-1 = %d", dr, p.Parts-1)
	}
}

func TestFig11bShape(t *testing.T) {
	r, err := Fig11b(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 variants", len(r.Rows))
	}
	// CP-Stars must beat CP-Naive on redundancy (paper: 1.32 vs 4.15).
	naive, _ := r.Value("CP-Naive", "DR")
	stars, _ := r.Value("CP-Stars", "DR")
	if stars >= naive {
		t.Errorf("CP-Stars DR %v should be < CP-Naive %v", stars, naive)
	}
	// SD variants trade locality for much lower redundancy.
	sdn, _ := r.Value("SD-Naive", "DR")
	if sdn >= naive {
		t.Errorf("SD-Naive DR %v should be far below CP-Naive %v", sdn, naive)
	}
	sdnDL, _ := r.Value("SD-Naive", "DL")
	if sdnDL >= 0.999 {
		t.Errorf("SD-Naive DL %v should be < 1 on the snowflake schema", sdnDL)
	}
	// WD restores locality.
	wdDL, _ := r.Value("WD", "DL")
	if wdDL < 0.95 {
		t.Errorf("WD DL = %v, want ≈ 1", wdDL)
	}
}

// TestTPCDSDesignsDeterministic designs WD and SD-Stars twice over the same
// data: the designers' float sums must not follow map order, or near-tied
// choices flip between runs and the TPC-DS figures cannot be pinned.
func TestTPCDSDesignsDeterministic(t *testing.T) {
	p := smallParams()
	p.Parts = 10
	ds := tpcds.Generate(p.DSSF, p.Seed)
	type outcome struct {
		configs []string
		dr      float64
	}
	design := func() map[string]outcome {
		vs, err := TPCDSVariants(ds, p.Parts)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]outcome{}
		for _, name := range []string{"WD", "SD-Stars"} {
			m, err := Materialize(vs[name], ds.DB)
			if err != nil {
				t.Fatal(err)
			}
			o := outcome{dr: m.DR}
			for _, g := range vs[name].Groups {
				o.configs = append(o.configs, g.Name+" "+g.Config.String())
			}
			out[name] = o
		}
		return out
	}
	first, second := design(), design()
	for name, a := range first {
		b := second[name]
		if a.dr != b.dr || strings.Join(a.configs, "\n") != strings.Join(b.configs, "\n") {
			t.Errorf("%s differs between two designs of the same data: DR %v vs %v\n%s\nvs\n%s",
				name, a.dr, b.dr, strings.Join(a.configs, "\n"), strings.Join(b.configs, "\n"))
		}
	}
}

func TestFig12Shapes(t *testing.T) {
	p := smallParams()
	r, err := Fig12a(p)
	if err != nil {
		t.Fatal(err)
	}
	// CP grows linearly with n (slope = replicated fraction of the
	// database); SD grows sub-linearly and stays far below.
	cpAt := func(label string) float64 { v, _ := r.Value(label, "CP"); return v }
	sdAt := func(label string) float64 { v, _ := r.Value(label, "SD"); return v }
	if cpAt("n=100") < 5*cpAt("n=10") {
		t.Errorf("CP DR growth n=10→100 is %v→%v, want ~linear (×10)", cpAt("n=10"), cpAt("n=100"))
	}
	if sdAt("n=100") > cpAt("n=100")/3 {
		t.Errorf("SD DR at n=100 = %v vs CP %v: should be far below", sdAt("n=100"), cpAt("n=100"))
	}
	if sdAt("n=100") > 3*sdAt("n=10")+1 {
		t.Errorf("SD DR growth n=10→100 is %v→%v, want sub-linear", sdAt("n=10"), sdAt("n=100"))
	}
	if cpAt("n=1") != 0 {
		t.Errorf("single node must have zero redundancy, CP = %v", cpAt("n=1"))
	}
}

func TestFig13SamplingAccuracy(t *testing.T) {
	p := smallParams()
	r, err := Fig13(p)
	if err != nil {
		t.Fatal(err)
	}
	// At full sampling the only error left is the uniform-placement
	// model; on uniform TPC-H it is small. (At the tiny test scale,
	// sampled rates are noisy — the full-scale trend is recorded in
	// EXPERIMENTS.md from the real bench run.)
	full, _ := r.Value("100%", "tpch_err")
	if full > 0.15 {
		t.Errorf("TPC-H estimate error at 100%% sampling = %v, want small", full)
	}
	for _, row := range r.Rows {
		for i, v := range row.Values {
			if v < 0 {
				t.Errorf("row %s col %d negative: %v", row.Label, i, v)
			}
		}
	}
	if _, ok := r.Value("10%", "tpch_err"); !ok {
		t.Fatal("missing 10% row")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	r.Add("row1", 1, 2.5)
	r.Notes = append(r.Notes, "hello")
	s := r.String()
	for _, want := range []string{"demo", "row1", "2.5", "hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	if _, ok := r.Value("row1", "nope"); ok {
		t.Error("unknown column must not resolve")
	}
	if v, ok := r.Value("row1", "b"); !ok || v != 2.5 {
		t.Errorf("Value = %v %v", v, ok)
	}
}

func TestWDVariantRoutesQueries(t *testing.T) {
	p := smallParams()
	th := tpch.Generate(p.SF, p.Seed)
	vs, err := TPCHVariants(th, p.Parts)
	if err != nil {
		t.Fatal(err)
	}
	wd := vs["WD"]
	if len(wd.Groups) < 1 {
		t.Fatal("WD must have groups")
	}
	// Routed groups must contain the query's tables.
	m, err := Materialize(wd, th.DB)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range tpch.QueryNames {
		gi := wd.RouteFor(q)
		if gi < 0 || gi >= len(m.PDBs) {
			t.Fatalf("%s routed to %d", q, gi)
		}
	}
}
