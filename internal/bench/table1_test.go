package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestTable1MatchesBaseline regenerates Table 1 at the default parameters
// and requires every DL and DR to equal the committed
// benchdata/BENCH_table1.json bit for bit: the designs and the placement
// of every PREF row decide them, so a change to either that moves a
// stored copy shows here. A deliberate change regenerates the file
// (benchdata/README.md) and says so.
func TestTable1MatchesBaseline(t *testing.T) {
	data, err := os.ReadFile("../../benchdata/BENCH_table1.json")
	if err != nil {
		t.Fatal(err)
	}
	var want reportJSON
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	r, err := Table1(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Columns, want.Columns) {
		t.Fatalf("columns %v, want %v", r.Columns, want.Columns)
	}
	if len(r.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(want.Rows))
	}
	for i, row := range r.Rows {
		w := want.Rows[i]
		if row.Label != w.Label || !reflect.DeepEqual(row.Values, w.Values) {
			t.Errorf("row %d = %s %v, want %s %v", i, row.Label, row.Values, w.Label, w.Values)
		}
	}
}
