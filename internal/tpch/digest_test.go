package tpch

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"testing"

	"pref/internal/value"
)

// writeTable feeds one generated table into h: each row's values as 8-byte
// little-endian, then each dictionary column's strings in code order.
func writeTable(h hash.Hash64, d *TPCH, name string) {
	var buf [8]byte
	for _, row := range d.DB.Tables[name].Rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	meta := d.DB.Schema.Table(name)
	for _, c := range meta.Columns {
		if c.Kind != value.Str {
			continue
		}
		dict := meta.Dict(c.Name)
		for code := 0; code < dict.Size(); code++ {
			h.Write([]byte(dict.String(int64(code))))
		}
	}
}

func sortedTables(d *TPCH) []string {
	names := d.DB.Schema.TableNames()
	sort.Strings(names)
	return names
}

// digest is the FNV-1a 64 digest of a generated database: its tables in
// name order, each as writeTable feeds it.
func digest(d *TPCH) string {
	h := fnv.New64a()
	for _, name := range sortedTables(d) {
		writeTable(h, d, name)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// tableDigests pins each table of Generate(0.01, 42) on its own, so a
// change that moves one table names it.
var tableDigests = map[string]string{
	"customer": "6c5266aa92a19ac2",
	"lineitem": "ad53a6b733fef809",
	"nation":   "3b7da2aa4445441d",
	"orders":   "10006329b1021248",
	"part":     "9641b97a24671833",
	"partsupp": "463baa32b4ea6ea2",
	"region":   "1077f353844bdb9c",
	"supplier": "68568df0669ca131",
}

// TestGeneratorPinned pins the generator's output at seed 42, every value
// and every dictionary string in code order: a change that moves one row,
// or the order strings are first coded in, shows here.
func TestGeneratorPinned(t *testing.T) {
	for _, c := range []struct {
		sf   float64
		want string
	}{
		{0.002, "09a61946b1c3687c"},
		{0.01, "3202f493833bff49"},
		{0.05, "bfc9f3367a5d5a79"},
	} {
		d := Generate(c.sf, 42)
		if got := digest(d); got != c.want {
			t.Errorf("sf %v: digest %s, want %s", c.sf, got, c.want)
		}
		if c.sf != 0.01 {
			continue
		}
		for _, name := range sortedTables(d) {
			h := fnv.New64a()
			writeTable(h, d, name)
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tableDigests[name] {
				t.Errorf("sf 0.01 table %s: digest %s, want %s", name, got, tableDigests[name])
			}
		}
	}
}
