package bench

import (
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"

	"pref/internal/table"
	"pref/internal/tpch"
)

// placementDump writes, per table and partition, every stored row in
// stored order with its dup and hasRef bits.
func placementDump(w io.Writer, pdb *table.PartitionedDatabase) {
	names := make([]string, 0, len(pdb.Tables))
	for name := range pdb.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for p, part := range pdb.Tables[name].Parts {
			fmt.Fprintf(w, "%s[%d]\n", name, p)
			for i, r := range part.Rows() {
				fmt.Fprintln(w, r, part.Dup(i), part.HasRef(i))
			}
		}
	}
}

// TestPlacementPinned holds the partitioner to the placement it produced
// while partitions still stored rows and bitmaps: the digests were taken
// from that form, over the seven TPC-H variants.
func TestPlacementPinned(t *testing.T) {
	want := map[string]string{
		"AllReplicated": "64100951e6135237c35cbdb8efb0015fbae54e871bc089ea9df429d09c5845e2",
		"AllHashed":     "9f972e49c24a8d62f54cf95407a92104e532b82dc24684fd8edf747d6b140cd4",
		"CP":            "dd0fd2004a01c76a8871d46a9b8b2eb6afaec4bb084fae2932363de0ce08ef0a",
		"SD":            "ced702b58dddc54726976ba5f798eabdb0f240eac385d5b3923c797ed399a5d2",
		"SD-noRed":      "8bb149b469876638530915244389ee0596e86ecec5ccbbf11ccb0c6843fb4e74",
		"SD-paper":      "15ba61b00112aeff91f83e600f76627cf5cd417f1f1533410f794779f0f9ee98",
		"WD":            "a4088376465391e9bf10488018d3dc8ca903e95ccd4661e4c7fe577078f43453",
	}
	d := tpch.Generate(0.002, 7)
	vs, err := TPCHVariants(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(want) {
		t.Fatalf("%d variants, %d pinned", len(vs), len(want))
	}
	for name, v := range vs {
		m, err := Materialize(v, d.DB)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for g, pdb := range m.PDBs {
			fmt.Fprintf(h, "group %d\n", g)
			placementDump(h, pdb)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[name] {
			t.Errorf("%s: placement digest %s, want %s", name, got, want[name])
		}
	}
}

// TestStoreIsOneCopy measures what a materialized design keeps alive once
// the generated rows are dropped and every partition has been scanned: the
// live heap may exceed the payload of
// the stored columns — 8 bytes × stored rows × (width + dup + hasRef) —
// only by the growth capacity appends leave behind. A second form of the
// data beside the columns (rows, a cached projection) reads 2× or more.
func TestStoreIsOneCopy(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what sync.Pool kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := live()
	d := tpch.Generate(0.01, 42)
	v, err := TPCHVariant(d, 4, "SD")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Materialize(v, d.DB)
	if err != nil {
		t.Fatal(err)
	}
	d = nil // drop the generated rows
	var payload uint64
	for _, pdb := range m.PDBs {
		for _, pt := range pdb.Tables {
			payload += 8 * uint64(pt.StoredRows()) * uint64(pt.Meta.NumCols()+2)
			for _, part := range pt.Parts {
				part.Columns(pt.Meta.NumCols()) // what a scan reads
			}
		}
	}
	heap := live() - base
	ratio := float64(heap) / float64(payload)
	t.Logf("live heap %.1f MB over %.1f MB of stored columns: %.2fx", float64(heap)/1e6, float64(payload)/1e6, ratio)
	if ratio > 1.3 {
		t.Fatalf("the store keeps %.2fx its column payload alive, want at most 1.3x", ratio)
	}
	runtime.KeepAlive(m)
}
