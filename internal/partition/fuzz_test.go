package partition_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"pref/internal/partition"
	"pref/internal/tpch"
)

// FuzzConfigJSON: a design file read by -config (prefquery, prefcheck)
// goes through UnmarshalJSON and then Validate against TPC-H's schema
// without panicking, and a config both accept re-marshals to bytes that
// load back to the same config, bytes and all.
func FuzzConfigJSON(f *testing.F) {
	sd := partition.NewConfig(4)
	sd.SetHash("customer", "custkey")
	sd.SetPref("orders", "customer", []string{"custkey"}, []string{"custkey"})
	sd.SetPref("lineitem", "orders", []string{"orderkey"}, []string{"orderkey"})
	sd.SetReplicated("nation")
	sd.Set(&partition.TableScheme{Table: "part", Method: partition.Range, Cols: []string{"partkey"}, Bounds: []int64{10, 20, 30}})
	sd.Set(&partition.TableScheme{Table: "supplier", Method: partition.RoundRobin})
	good, err := json.Marshal(sd)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, seed := range []string{
		`{"partitions":2,"tables":[]}`,
		`{"partitions":0,"tables":[]}`,
		`{"partitions":2,"tables":[{"table":"orders","method":"pref","ref_table":"orders","own_cols":["orderkey"],"ref_cols":["orderkey"]}]}`,
		`{"partitions":2,"tables":[{"table":"orders","method":"pref","ref_table":"customer","own_cols":["custkey"],"ref_cols":["custkey"]},{"table":"customer","method":"pref","ref_table":"orders","own_cols":["custkey"],"ref_cols":["custkey"]}]}`,
		`{"partitions":3,"tables":[{"table":"part","method":"range","cols":["partkey"],"bounds":[5,5]}]}`,
		`{"partitions":2,"tables":[{"table":"nation","method":"hash","cols":["nosuchcol"]}]}`,
		`{"partitions":2,"tables":[{"table":"nation","method":"hash","cols":[]}]}`,
		`{"partitions":2,"tables":[{"table":"nation","method":"replicated"},{"table":"nation","method":"hash","cols":["nationkey"]}]}`,
		`{"partitions":1e999}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	schema := tpch.Schema()
	f.Fuzz(func(t *testing.T, data []byte) {
		var c partition.Config
		if c.UnmarshalJSON(data) != nil || c.Validate(schema) != nil {
			return
		}
		out, err := json.Marshal(&c)
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		var back partition.Config
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-marshalled config does not load: %v\n%s", err, out)
		}
		if err := back.Validate(schema); err != nil {
			t.Fatalf("re-marshalled config does not validate: %v\n%s", err, out)
		}
		again, err := json.Marshal(&back)
		if err != nil || !bytes.Equal(again, out) {
			t.Fatalf("round trip changed the config (%v):\n%s\nthen\n%s", err, out, again)
		}
	})
}
