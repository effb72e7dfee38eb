package batch_test

import (
	"math/rand"
	"reflect"
	"testing"

	"pref/internal/batch"
	"pref/internal/plan"
)

// TestBatchStorageIsUnexported pins the type behind the batch-write rule:
// outside package batch nothing can reach a Batch's column or selection
// storage, so nothing can write through a batch it received. A Batch has
// no exported field, and no exported method of *Batch returns a slice but
// Row, which fills and returns the caller's own dst.
func TestBatchStorageIsUnexported(t *testing.T) {
	typ := reflect.TypeFor[batch.Batch]()
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			t.Errorf("batch.Batch has exported field %s %v", f.Name, f.Type)
		}
	}
	ptr := reflect.PointerTo(typ)
	for i := 0; i < ptr.NumMethod(); i++ {
		m := ptr.Method(i)
		for o := 0; o < m.Type.NumOut(); o++ {
			if m.Type.Out(o).Kind() == reflect.Slice && m.Name != "Row" {
				t.Errorf("(*batch.Batch).%s returns %v", m.Name, m.Type.Out(o))
			}
		}
	}
}

// views returns the test batches: b dense, and b narrowed to a random
// ascending selection.
func views(rng *rand.Rand, cols [][]int64) []*batch.Batch {
	b := batch.View(cols)
	var sel []int32
	for i := 0; i < b.Len(); i++ {
		if rng.Intn(3) > 0 {
			sel = append(sel, int32(i))
		}
	}
	return []*batch.Batch{b, b.WithSel(sel)}
}

// TestJoinKernelsMatchRowLoops checks the kernels the engine's join and
// dedup call against loops over the exported row accessors.
func TestJoinKernelsMatchRowLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, batch.Size - 1, batch.Size + 3} {
		cols := make([][]int64, 3)
		for c := range cols {
			cols[c] = make([]int64, n)
			for i := range cols[c] {
				switch rng.Intn(6) {
				case 0:
					cols[c][i] = plan.Null
				case 1, 2:
					cols[c][i] = 0
				default:
					cols[c][i] = int64(rng.Intn(9))
				}
			}
		}
		build := batch.View([][]int64{{3, 0, 5, 3, plan.Null, 8, 3}})
		tab := batch.IndexColumn(build, 0)
		for _, b := range views(rng, cols) {
			var wantL, wantR []int32
			for i := 0; i < b.Len(); i++ {
				for r := 0; r < build.Len(); r++ {
					if build.At(r, 0) == b.At(i, 1) {
						wantL, wantR = append(wantL, int32(b.Phys(i))), append(wantR, int32(r))
					}
				}
			}
			gotL, gotR := tab.AppendMatches(nil, nil, b, 1)
			if !reflect.DeepEqual(gotL, wantL) || !reflect.DeepEqual(gotR, wantR) {
				t.Errorf("n=%d dense=%v: AppendMatches = %v %v, want %v %v", n, b.Dense(), gotL, gotR, wantL, wantR)
			}

			var want []int64
			for i := 0; i < b.Len(); i++ {
				if v, w := b.At(i, 0), b.At(i, 2); v == 0 || v == plan.Null || w == 0 || w == plan.Null {
					want = append(want, b.At(i, 1))
				}
			}
			kept := batch.DistinctPref(b, []int{0, 2})
			if len(want) == 0 {
				if kept != nil {
					t.Errorf("n=%d dense=%v: DistinctPref kept %d rows, want none (nil)", n, b.Dense(), kept.Len())
				}
				continue
			}
			var got []int64
			for i := 0; i < kept.Len(); i++ {
				got = append(got, kept.At(i, 1))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d dense=%v: DistinctPref kept %v, want %v", n, b.Dense(), got, want)
			}
		}
	}
}
