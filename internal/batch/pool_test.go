package batch

import (
	"math/rand"
	"sync"
	"testing"
)

// TestWriterExactSizeBatches pins the chunk boundary: a writer fed a
// multiple of Size rows emits exactly that many full batches and no empty
// trailer, whether the rows arrive tuple-at-a-time or batch-at-a-time.
func TestWriterExactSizeBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, batches := range []int{1, 2} {
		n := batches * Size
		rows := randRows(rng, n, 2)
		src := View(colsOf(rows, 2))

		w := NewWriter(2)
		for i := 0; i < n; i++ {
			w.AppendFrom(src, i)
		}
		out := w.Finish()
		if len(out) != batches {
			t.Fatalf("n=%d rows: got %d batches, want %d", n, len(out), batches)
		}
		for i, b := range out {
			if b.Len() != Size {
				t.Fatalf("n=%d rows: batch %d has %d rows, want %d", n, i, b.Len(), Size)
			}
		}
		ReleaseAll(out)

		w = NewWriter(2)
		w.AppendBatch(src)
		out = w.Finish()
		if len(out) != batches {
			t.Fatalf("AppendBatch n=%d rows: got %d batches, want %d", n, len(out), batches)
		}
		if !tuplesEqual(AppendRows(nil, out), rows) {
			t.Fatalf("AppendBatch n=%d rows: round trip mismatch", n)
		}
		ReleaseAll(out)
	}
}

// TestWriterEmptyInputs feeds zero-row batches through every append path:
// nothing may be emitted, and a writer that only ever saw empty input
// finishes with no batches rather than one empty one.
func TestWriterEmptyInputs(t *testing.T) {
	emptyDense := View([][]int64{{}, {}})
	emptySel := View([][]int64{{1, 2}, {3, 4}}).WithSel([]int32{})

	w := NewWriter(2)
	w.AppendBatch(emptyDense)
	w.AppendBatch(emptySel)
	if w.Len() != 0 {
		t.Fatalf("writer Len=%d after empty appends, want 0", w.Len())
	}
	if out := w.Finish(); len(out) != 0 {
		t.Fatalf("Finish after empty appends: got %d batches, want none", len(out))
	}

	// Empty batches interleaved with real rows contribute nothing.
	w = NewWriter(2)
	w.AppendBatch(emptyDense)
	w.AppendTuple([]int64{7, 8})
	w.AppendBatch(emptySel)
	out := w.Finish()
	if rows := AppendRows(nil, out); len(rows) != 1 || rows[0][0] != 7 || rows[0][1] != 8 {
		t.Fatalf("interleaved empties: got rows %v", rows)
	}
	ReleaseAll(out)

	// AppendRows skips empty batches in the list.
	if rows := AppendRows(nil, []*Batch{emptyDense, emptySel}); len(rows) != 0 {
		t.Fatalf("AppendRows over empty batches: got %v", rows)
	}
}

// TestReleaseIdempotent pins the header contract the engine's shared-list
// sweeps rely on: releasing a batch twice is a no-op the second time, and
// releasing a view never touches the pool.
func TestReleaseIdempotent(t *testing.T) {
	w := NewWriter(1)
	w.AppendTuple([]int64{42})
	bs := w.Finish()
	b := bs[0]
	b.Release()
	if b.Len() != 0 || b.pooled.Load() {
		t.Fatal("released batch still live")
	}
	b.Release() // second release: must not double-recycle
	ReleaseAll(bs)

	v := View([][]int64{{1, 2, 3}})
	v.Release()
	if v.Cols == nil || len(v.Cols[0]) != 3 {
		t.Fatal("releasing a view must not drop its storage")
	}
}

// TestConcurrentRelease races two sweeps over the same shared batch list,
// the broadcast/one-copy-gather shape. Run under -race: the CAS on the
// pooled flag must make the double sweep safe, with exactly one winner
// recycling each header.
func TestConcurrentRelease(t *testing.T) {
	for round := 0; round < 100; round++ {
		w := NewWriter(2)
		for i := 0; i < 3*Size+5; i++ {
			w.AppendTuple([]int64{int64(i), int64(-i)})
		}
		shared := w.Finish()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ReleaseAll(shared)
			}()
		}
		wg.Wait()
		for i, b := range shared {
			if b.pooled.Load() || b.Len() != 0 {
				t.Fatalf("round %d: batch %d survived the concurrent sweep", round, i)
			}
		}
	}
}

// TestPoolBalance pins the count the engine's tests assert on: every pooled
// column a writer checks out is counted once, released once — a second
// release of the same header counts nothing — and releasing a view counts
// nothing at all.
func TestPoolBalance(t *testing.T) {
	start := Outstanding()
	w := NewWriter(3)
	for i := 0; i < Size+1; i++ {
		w.AppendTuple([]int64{1, 2, 3})
	}
	bs := w.Finish()
	if got := Outstanding() - start; got != 6 {
		t.Fatalf("two width-3 batches outstanding: balance moved by %d, want 6", got)
	}
	ReleaseAll(bs)
	ReleaseAll(bs)
	View([][]int64{{1}}).Release()
	if got := Outstanding() - start; got != 0 {
		t.Fatalf("after release: balance moved by %d, want 0", got)
	}
}

// TestSharesPooled pins Verify's check of a fresh output: a view of a pooled
// column — whole, offset or narrowed — shares it; a copy, a view of storage
// and a released batch's successor do not.
func TestSharesPooled(t *testing.T) {
	w := NewWriter(2)
	for i := 0; i < 10; i++ {
		w.AppendTuple([]int64{int64(i), int64(-i)})
	}
	in := w.Finish()
	b := in[0]
	storage := View([][]int64{{1, 2, 3}})
	copied := NewWriter(2)
	copied.AppendBatch(b)
	fresh := copied.Finish()
	defer ReleaseAll(fresh)
	for _, tc := range []struct {
		name string
		out  *Batch
		want bool
	}{
		{"same batch", b, true},
		{"selection", b.WithSel([]int32{1, 3}), true},
		{"column subset", b.Select([]int{1}), true},
		{"offset window", View([][]int64{b.Cols[0][4:]}), true},
		{"copy", fresh[0], false},
		{"storage view", storage, false},
	} {
		if got := SharesPooled([][]*Batch{{tc.out}}, nil, [][]*Batch{in}); got != tc.want {
			t.Errorf("%s: SharesPooled = %v, want %v", tc.name, got, tc.want)
		}
	}
	if SharesPooled([][]*Batch{{b}}, [][]*Batch{{storage}}) {
		t.Error("a storage view is not pooled: nothing to share")
	}
	ReleaseAll(in)
}
