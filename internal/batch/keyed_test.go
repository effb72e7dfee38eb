package batch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"pref/internal/partition"
	"pref/internal/tpch"
)

// TestFetchIsTheExactFilter: reading a column through its index keeps the
// rows the exact filter keeps, in stored order, over dense chunks and over
// chunks a selection already narrowed; it visits the keys' distinct values
// once each, and the fetched rows are exactly those whose key the set holds.
func TestFetchIsTheExactFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, Size - 1, Size, 3*Size + 17} {
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(rng.Intn(n/4 + 2))
		}
		keys := []int64{1, 1, 3, 5, 5, 5, int64(n + 100), -7}
		set := BuildInt64Table(keys)
		if set.Distinct() != 5 {
			t.Fatalf("%d keys with 5 distinct values count %d", len(keys), set.Distinct())
		}
		rows := BuildInt64Table(col).Fetch(set)
		for _, narrowed := range []bool{false, true} {
			chunks := Chunks([][]int64{col})
			if narrowed {
				// A narrowed input: every other row; the set's row ids count
				// the live rows.
				var live []int64
				for i, c := range chunks {
					sel := make([]int32, 0, c.Len())
					for phys := 0; phys < c.Len(); phys += 2 {
						sel = append(sel, int32(phys))
						live = append(live, col[i*Size+phys])
					}
					chunks[i] = c.WithSel(sel)
				}
				rows = BuildInt64Table(live).Fetch(set)
			}
			var want, got []int64
			for _, b := range chunks {
				for _, phys := range set.Select(nil, b, 0) {
					want = append(want, int64(phys))
				}
			}
			for _, b := range rows.Narrow(chunks) {
				for i := 0; i < b.Len(); i++ {
					got = append(got, int64(b.Phys(i)))
				}
			}
			if !slices.Equal(got, want) || rows.Len() != len(want) {
				t.Fatalf("n=%d narrowed=%v: fetch keeps %v (%d rows), the exact filter %v", n, narrowed, got, rows.Len(), want)
			}
		}
	}
}

// BenchmarkKeyIndex prices the key index of a keyed read on a lineitem
// partition of TPC-H sf 0.05 hashed on orderkey over 4 nodes: building the
// index over its stored orderkey column (ns/row, allocs/row), and fetching
// the rows of one key in twenty of its distinct orderkeys through it
// (ns/key).
func BenchmarkKeyIndex(b *testing.B) {
	_, pt := lineitemPartition(b)
	col := pt.Parts[0].Columns(pt.Meta.NumCols()).Cols[pt.Meta.ColIndex("orderkey")]
	b.Run(fmt.Sprintf("build/rows=%d", len(col)), func(b *testing.B) {
		allocs := testing.AllocsPerRun(1, func() { BuildInt64Table(col) })
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			BuildInt64Table(col)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(col)), "ns/row")
		b.ReportMetric(allocs/float64(len(col)), "allocs/row")
	})
	index := BuildInt64Table(col)
	var keys []int64
	distinct := 0
	for i, k := range col {
		if i > 0 && k == col[i-1] {
			continue // a partition stores an order's lines together
		}
		if distinct%20 == 0 {
			keys = append(keys, k)
		}
		distinct++
	}
	set := BuildInt64Table(keys)
	b.Run(fmt.Sprintf("fetch/keys=%d", set.Distinct()), func(b *testing.B) {
		var took time.Duration
		fetched := 0
		for i := 0; i < b.N; i++ {
			start := time.Now()
			fetched = index.Fetch(set).Len()
			took += time.Since(start)
		}
		if fetched == 0 {
			b.Fatal("the fetch found no row")
		}
		b.ReportMetric(float64(took.Nanoseconds())/float64(b.N*set.Distinct()), "ns/key")
	})
}

// FuzzKeySetCodec: a key set's wire form decodes to exactly the sorted
// distinct keys it was encoded from, and its size, which the engine meters,
// is the varints that carry them and not a byte more: the first key's
// zigzag varint and one uvarint per gap. Decoding arbitrary bytes fails or
// yields strictly ascending keys, never a panic.
func FuzzKeySetCodec(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(nil, 7), uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.MaxUint64>>1), 1<<63), uint8(0))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 200, 1, 0, 0, 0, 0, 0, 0}, uint8(3))
	f.Add([]byte{9, 4, 4, 4, 4, 4, 4, 4, 4, 4}, uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, dense uint8) {
		// Whole 8-byte words are keys; with dense > 0 each is folded into
		// [−dense·8, dense·8), so keys repeat and gaps are short, as
		// TPC-H's are.
		var keys []int64
		for w := raw; len(w) >= 8; w = w[8:] {
			k := int64(binary.LittleEndian.Uint64(w))
			if dense > 0 {
				m := int64(dense) * 8
				k = k%m - m/2
			}
			keys = append(keys, k)
		}
		before := slices.Clone(keys)
		enc := EncodeKeySet(keys)
		if !slices.Equal(keys, before) {
			t.Fatal("EncodeKeySet modified its keys")
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		want = slices.Compact(want)
		got, err := DecodeKeySet(nil, enc)
		if err != nil {
			t.Fatalf("decoding %d keys: %v", len(want), err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("decoded %v, want %v", got, want)
		}
		size := 0
		for i, k := range want {
			if i == 0 {
				size += len(binary.AppendVarint(nil, k))
			} else {
				size += len(binary.AppendUvarint(nil, uint64(k)-uint64(want[i-1])))
			}
		}
		if len(enc) != size {
			t.Fatalf("%d keys metered %d B, their varints take %d", len(want), len(enc), size)
		}
		if out, err := DecodeKeySet(nil, raw); err == nil {
			for i := 1; i < len(out); i++ {
				if out[i] <= out[i-1] {
					t.Fatalf("decoding %x gave %v, not strictly ascending", raw, out)
				}
			}
		}
	})
}

// TestKeySetSelectAndUnion: a shipped filter decodes every source
// partition's set into one table and keeps, over a selection vector, the
// rows whose key any set holds; an empty set ships no byte and holds
// nothing, and bytes no encoder wrote are refused.
func TestKeySetSelectAndUnion(t *testing.T) {
	var union []int64
	for _, part := range [][]int64{{10, 10}, nil, {20, -5}} {
		var err error
		if union, err = DecodeKeySet(union, EncodeKeySet(part)); err != nil {
			t.Fatal(err)
		}
	}
	set := BuildInt64Table(union)
	col := []int64{10, 11, 20, 21, 10, -5}
	bt := View([][]int64{col}).WithSel([]int32{0, 2, 3, 5})
	if got := set.Select(nil, bt, 0); !slices.Equal(got, []int32{0, 2, 5}) {
		t.Fatalf("Select over sel [0 2 3 5] kept %v, want [0 2 5]", got)
	}
	if enc := EncodeKeySet(nil); len(enc) != 0 {
		t.Fatalf("an empty set ships %d bytes, want 0", len(enc))
	}
	for _, bad := range [][]byte{{0x80}, {2, 0}, binary.AppendUvarint([]byte{2}, math.MaxInt64)} {
		if _, err := DecodeKeySet(nil, bad); err == nil {
			t.Errorf("DecodeKeySet(%x) accepted bytes no encoder writes", bad)
		}
	}
}

// BenchmarkKeySet prices a shipped runtime filter's kernels on the keys of
// an orders partition of TPC-H sf 0.05 hashed on orderkey over 4 nodes:
// encoding them (ns/key, and the wire's B/key), decoding them into the
// table a node probes (ns/key, allocated B/key), and probing a lineitem
// partition's orderkey stream through Select (ns/row, allocated B/row).
func BenchmarkKeySet(b *testing.B) {
	d := tpch.Generate(0.05, 42)
	var others []string
	for _, name := range d.DB.Schema.TableNames() {
		if name != "orders" && name != "lineitem" {
			others = append(others, name)
		}
	}
	cfg := partition.NewConfig(4)
	cfg.SetHash("orders", "orderkey")
	cfg.SetHash("lineitem", "orderkey")
	pdb, err := partition.Apply(d.DB.Without(others...), cfg)
	if err != nil {
		b.Fatal(err)
	}
	column := func(tbl string) []int64 {
		pt := pdb.Tables[tbl]
		return pt.Parts[0].Columns(pt.Meta.NumCols()).Cols[pt.Meta.ColIndex("orderkey")]
	}
	keys, probe := column("orders"), Chunks([][]int64{column("lineitem")})
	enc := EncodeKeySet(keys)
	rows := 0
	for _, bt := range probe {
		rows += bt.Len()
	}
	// perUnit runs op b.N times and reports its ns and allocated bytes per
	// unit, n units an op.
	perUnit := func(b *testing.B, n int, unit string, op func()) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc := ms.TotalAlloc
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/"+unit)
		b.ReportMetric(float64(ms.TotalAlloc-alloc)/float64(b.N*n), "B/"+unit)
	}
	b.Run(fmt.Sprintf("encode/keys=%d", len(keys)), func(b *testing.B) {
		perUnit(b, len(keys), "key", func() { EncodeKeySet(keys) })
		b.ReportMetric(float64(len(enc))/float64(len(keys)), "wire-B/key")
	})
	b.Run(fmt.Sprintf("decode/keys=%d", len(keys)), func(b *testing.B) {
		perUnit(b, len(keys), "key", func() {
			got, err := DecodeKeySet(nil, enc)
			if err != nil {
				b.Fatal(err)
			}
			BuildInt64Table(got)
		})
	})
	got, _ := DecodeKeySet(nil, enc)
	set := BuildInt64Table(got)
	sel := make([]int32, 0, Size)
	b.Run(fmt.Sprintf("select/rows=%d", rows), func(b *testing.B) {
		kept := 0
		perUnit(b, rows, "row", func() {
			kept = 0
			for _, bt := range probe {
				kept += len(set.Select(sel[:0], bt, 0))
			}
		})
		if kept != rows {
			b.Fatalf("kept %d of %d rows co-located with their orders", kept, rows)
		}
	})
}
