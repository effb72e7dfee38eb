package batch

import (
	"math/rand"
	"testing"

	"pref/internal/plan"
	"pref/internal/value"
)

// boundarySizes are the row counts most likely to expose off-by-one bugs in
// chunking and selection handling.
var boundarySizes = []int{0, 1, Size - 1, Size, Size + 1, 3*Size + 17}

// randRows generates n random rows of the given width with NULLs sprinkled
// in, values drawn from a small domain so predicates hit.
func randRows(rng *rand.Rand, n, width int) []value.Tuple {
	rows := make([]value.Tuple, n)
	for i := range rows {
		t := make(value.Tuple, width)
		for c := range t {
			if rng.Intn(8) == 0 {
				t[c] = plan.Null
			} else {
				t[c] = int64(rng.Intn(9) - 4)
			}
		}
		rows[i] = t
	}
	return rows
}

// colsOf transposes rows into column vectors.
func colsOf(rows []value.Tuple, width int) [][]int64 {
	cols := make([][]int64, width)
	for c := range cols {
		cols[c] = make([]int64, len(rows))
		for i, r := range rows {
			cols[c][i] = r[c]
		}
	}
	return cols
}

// randSel returns either nil or a random ascending selection over n rows.
func randSel(rng *rand.Rand, n int) []int32 {
	if n == 0 || rng.Intn(3) == 0 {
		return nil
	}
	var sel []int32
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// applySel materializes the row view a selection induces.
func applySel(rows []value.Tuple, sel []int32) []value.Tuple {
	if sel == nil {
		return rows
	}
	out := make([]value.Tuple, len(sel))
	for i, p := range sel {
		out[i] = rows[p]
	}
	return out
}

func tuplesEqual(a, b []value.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if a[i][c] != b[i][c] {
				return false
			}
		}
	}
	return true
}

// fromRows builds one dense batch per Size-row window of rows through a
// Writer — the inverse of AppendRows.
func fromRows(rows []value.Tuple, width int) []*Batch {
	w := NewWriter(width)
	for _, r := range rows {
		w.AppendTuple(r)
	}
	return w.Finish()
}

// TestRoundTripBoundaries pins fromRows → AppendRows as the identity at
// every boundary size.
func TestRoundTripBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range boundarySizes {
		rows := randRows(rng, n, 4)
		bs := fromRows(rows, 4)
		if got := Rows(bs); got != n {
			t.Fatalf("n=%d: Rows=%d", n, got)
		}
		for _, b := range bs {
			if b.Len() > Size {
				t.Fatalf("n=%d: batch over capacity: %d", n, b.Len())
			}
		}
		back := AppendRows(nil, bs)
		if !tuplesEqual(back, rows) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

// TestChunksBoundaries pins the zero-copy chunking: same rows, batches
// share storage with the source columns.
func TestChunksBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range boundarySizes {
		rows := randRows(rng, n, 3)
		cols := colsOf(rows, 3)
		bs := Chunks(cols)
		back := AppendRows(nil, bs)
		if !tuplesEqual(back, rows) {
			t.Fatalf("n=%d: chunk round trip mismatch", n)
		}
		if n > 0 && &bs[0].cols[0][0] != &cols[0][0] {
			t.Fatalf("n=%d: chunk copied instead of viewing", n)
		}
	}
}

// TestFilterMatchesRowEngine drives random predicates, and wide conjunctions
// of them, over random batches (with and without incoming selections) and
// checks the kernel against the plan.Bind row closure — the row engine's
// exact semantics.
func TestFilterMatchesRowEngine(t *testing.T) {
	sch := plan.Schema{
		{Name: "a", Kind: value.Int},
		{Name: "b", Kind: value.Money},
		{Name: "c", Kind: value.Int},
	}
	rng := rand.New(rand.NewSource(3))
	genExpr := func() plan.ValExpr {
		switch rng.Intn(3) {
		case 0:
			return plan.Col([]string{"a", "b", "c"}[rng.Intn(3)])
		case 1:
			return plan.Lit(int64(rng.Intn(9) - 4))
		default:
			return plan.F("s", value.Int, []string{"a", "c"}, func(v []int64) int64 { return v[0] + v[1] })
		}
	}
	var genPred func(d int) plan.BoolExpr
	genPred = func(d int) plan.BoolExpr {
		if d <= 0 {
			return plan.Cmp(genExpr(), plan.CmpOp(rng.Intn(6)), genExpr())
		}
		switch rng.Intn(5) {
		case 0:
			return plan.And(genPred(d-1), genPred(d-1))
		case 1:
			return plan.Or(genPred(d-1), genPred(d-1))
		case 2:
			return plan.Not(genPred(d - 1))
		case 3:
			return plan.In("b", int64(rng.Intn(3)-1), int64(rng.Intn(3)-1))
		default:
			return plan.Cmp(genExpr(), plan.CmpOp(rng.Intn(6)), genExpr())
		}
	}

	// wide is a conjunction of up to five legs, each a column-vs-literal
	// comparison in either operand order, or any other predicate: the
	// column loops run every leg of the first kind.
	wide := func() plan.BoolExpr {
		legs := make([]plan.BoolExpr, rng.Intn(6))
		for i := range legs {
			col, lit := plan.Col([]string{"a", "b", "c"}[rng.Intn(3)]), plan.Lit(int64(rng.Intn(9)-4))
			switch rng.Intn(3) {
			case 0:
				legs[i] = plan.Cmp(col, plan.CmpOp(rng.Intn(6)), lit)
			case 1:
				legs[i] = plan.Cmp(lit, plan.CmpOp(rng.Intn(6)), col)
			default:
				legs[i] = genPred(rng.Intn(2))
			}
		}
		if rng.Intn(4) == 0 && len(legs) > 1 {
			return plan.And(legs[0], plan.And(legs[1:]...))
		}
		return plan.And(legs...)
	}

	for trial := 0; trial < 240; trial++ {
		p := genPred(rng.Intn(3))
		if trial >= 120 {
			p = wide()
		}
		bound, err := p.Bind(sch)
		if err != nil {
			t.Fatalf("bind: %v", err)
		}
		vp, err := plan.CompilePred(p, sch)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		n := boundarySizes[rng.Intn(len(boundarySizes))]
		rows := randRows(rng, n, len(sch))
		sel := randSel(rng, n)
		b := View(colsOf(rows, len(sch))).WithSel(sel)

		var want []value.Tuple
		for _, r := range applySel(rows, sel) {
			if bound(r) {
				want = append(want, r)
			}
		}
		got := AppendRows(nil, []*Batch{Filter(b, vp)})
		if !tuplesEqual(got, want) {
			t.Fatalf("trial %d (%s, n=%d, sel=%v): filter kernel disagrees with row engine: got %d rows want %d",
				trial, p, n, sel != nil, len(got), len(want))
		}
		// Input batch must be untouched (ownership rule).
		if !tuplesEqual(applySel(rows, sel), AppendRows(nil, []*Batch{b})) {
			t.Fatalf("trial %d: Filter mutated its input", trial)
		}
	}
}

// TestProjectMatchesRowEngine checks the projection kernel (column picks,
// literals, computed funcs) against Bind closures.
func TestProjectMatchesRowEngine(t *testing.T) {
	sch := plan.Schema{{Name: "x", Kind: value.Int}, {Name: "y", Kind: value.Int}}
	exprs := []plan.ValExpr{
		plan.Col("y"),
		plan.Lit(7),
		plan.F("d", value.Int, []string{"x", "y"}, func(v []int64) int64 { return v[0] - v[1] }),
		plan.Col("x"),
	}
	bounds := make([]func(value.Tuple) int64, len(exprs))
	vexprs := make([]*plan.VExpr, len(exprs))
	for i, e := range exprs {
		var err error
		if bounds[i], err = e.Bind(sch); err != nil {
			t.Fatalf("bind: %v", err)
		}
		if vexprs[i], err = plan.CompileExpr(e, sch); err != nil {
			t.Fatalf("compile: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for _, n := range boundarySizes {
		rows := randRows(rng, n, len(sch))
		sel := randSel(rng, n)
		b := View(colsOf(rows, len(sch))).WithSel(sel)
		var want []value.Tuple
		for _, r := range applySel(rows, sel) {
			out := make(value.Tuple, len(exprs))
			for i := range exprs {
				out[i] = bounds[i](r)
			}
			want = append(want, out)
		}
		out := Project(b, vexprs)
		got := AppendRows(nil, []*Batch{out})
		if !tuplesEqual(got, want) {
			t.Fatalf("n=%d: projection kernel disagrees with row engine", n)
		}
		out.Release()
	}
}

// TestKeyAndHashParity pins KeyBuf/HashRow to value.MakeKey/value.HashTuple
// byte for byte.
func TestKeyAndHashParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randRows(rng, 500, 5)
	sel := randSel(rng, 500)
	b := View(colsOf(rows, 5)).WithSel(sel)
	cols := []int{3, 0, 2}
	kb := NewKeyBuf(len(cols))
	live := applySel(rows, sel)
	for i, r := range live {
		kb.Encode(b, i, cols)
		if kb.Key() != value.MakeKey(r, cols) {
			t.Fatalf("row %d: key mismatch", i)
		}
		if HashRow(b, i, cols) != value.HashTuple(r, cols) {
			t.Fatalf("row %d: hash mismatch", i)
		}
	}
	// Probe must find keys inserted via the row-side encoding.
	m := map[value.Key][]int32{}
	for i, r := range live {
		m[value.MakeKey(r, cols)] = append(m[value.MakeKey(r, cols)], int32(i))
	}
	for i := range live {
		kb.Encode(b, i, cols)
		if _, ok := Probe(kb, m); !ok {
			t.Fatalf("row %d: probe missed its own key", i)
		}
	}
}

// TestWriterAppendPair exercises the join-emit path, AppendPairs, including
// left-outer null padding (right index -1), across a batch boundary.
func TestWriterAppendPair(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := Size + 5
	lrows := randRows(rng, n, 2)
	rrows := randRows(rng, n, 3)
	l := View(colsOf(lrows, 2))
	r := View(colsOf(rrows, 3))
	li, ri := make([]int32, n), make([]int32, n)
	var want []value.Tuple
	for k := range li {
		// Left row k pairs with the right row at the other end, or with none.
		li[k], ri[k] = int32(k), int32(n-1-k)
		right := rrows[n-1-k]
		if k%3 == 0 {
			ri[k], right = -1, value.Tuple{plan.Null, plan.Null, plan.Null}
		}
		want = append(want, append(append(value.Tuple{}, lrows[k]...), right...))
	}
	w := NewWriter(5)
	w.AppendPairs(l, li, r, ri, plan.Null)
	got := AppendRows(nil, w.Finish())
	if !tuplesEqual(got, want) {
		t.Fatal("AppendPairs output mismatch")
	}
}

// TestPoolRecycling checks Release returns columns that get() can reuse
// without corrupting previously finished batches.
func TestPoolRecycling(t *testing.T) {
	w := NewWriter(2)
	for i := 0; i < 10; i++ {
		w.AppendTuple([]int64{int64(i), int64(-i)})
	}
	bs := w.Finish()
	snapshot := AppendRows(nil, bs) // deep copy via shim
	ReleaseAll(bs)
	// Churn the pool.
	for i := 0; i < 50; i++ {
		b := get(3)
		for c := range b.cols {
			b.cols[c] = append(b.cols[c], 99, 98, 97)
		}
		b.Release()
	}
	for i, r := range snapshot {
		if r[0] != int64(i) || r[1] != int64(-i) {
			t.Fatalf("row %d corrupted after pool churn: %v", i, r)
		}
	}
	if bs[0].Len() != 0 {
		t.Fatal("released batch still reports rows")
	}
}

// TestWriterBoundaries pins Writer chunking at every boundary size.
func TestWriterBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range boundarySizes {
		rows := randRows(rng, n, 3)
		w := NewWriter(3)
		src := View(colsOf(rows, 3))
		for i := 0; i < n; i++ {
			w.AppendFrom(src, i)
		}
		if w.Len() != n {
			t.Fatalf("n=%d: writer Len=%d", n, w.Len())
		}
		got := AppendRows(nil, w.Finish())
		if !tuplesEqual(got, rows) {
			t.Fatalf("n=%d: writer round trip mismatch", n)
		}
	}
}

// TestSelectIsAViewNotAnOwner pins the column-subset primitive: a Select
// view reads the chosen columns through the source's selection vector, in
// the order asked, and releasing it leaves the source's pooled columns alone.
func TestSelectIsAViewNotAnOwner(t *testing.T) {
	w := NewWriter(4)
	for i := int64(0); i < 10; i++ {
		w.AppendTuple([]int64{i, 10 + i, 20 + i, 30 + i})
	}
	src := w.Finish()[0].WithSel([]int32{1, 4, 7})
	v := src.Select([]int{3, 1})
	want := []value.Tuple{{31, 11}, {34, 14}, {37, 17}}
	if got := AppendRows(nil, []*Batch{v}); !tuplesEqual(got, want) {
		t.Fatalf("Select view reads %v, want %v", got, want)
	}
	if all := SelectAll([]*Batch{src}, nil); len(all) != 1 || all[0] != src {
		t.Fatal("SelectAll(nil) must hand the list back untouched")
	}
	v.Release()
	if got := AppendRows(nil, []*Batch{src}); len(got) != 3 || got[2][0] != 7 {
		t.Fatalf("releasing a Select view disturbed its source: %v", got)
	}
}
