package stats

import (
	"math"
	"math/big"
	"reflect"
	"testing"
	"testing/quick"

	"pref/internal/catalog"
	"pref/internal/table"
	"pref/internal/value"
)

func TestStirling2KnownValues(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {1, 1, 1}, {3, 2, 3}, {4, 2, 7}, {5, 3, 25},
		{6, 3, 90}, {10, 5, 42525}, {5, 5, 1}, {5, 0, 0}, {5, 6, 0}, {-1, 0, 0},
	}
	for _, c := range cases {
		if got := Stirling2(c.n, c.k).Int64(); got != c.want {
			t.Errorf("S(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestStirling2Recurrence(t *testing.T) {
	// S(n,k) = k·S(n−1,k) + S(n−1,k−1)
	for n := 2; n <= 12; n++ {
		for k := 1; k <= n; k++ {
			lhs := Stirling2(n, k)
			rhs := Stirling2(n-1, k)
			rhs.Mul(rhs, big.NewInt(int64(k)))
			rhs.Add(rhs, Stirling2(n-1, k-1))
			if lhs.Cmp(rhs) != 0 {
				t.Fatalf("recurrence fails at S(%d,%d)", n, k)
			}
		}
	}
}

func TestBellNumbers(t *testing.T) {
	want := []int64{1, 1, 2, 5, 15, 52, 203, 877, 4140}
	for n, w := range want {
		if got := Bell(n).Int64(); got != w {
			t.Errorf("B(%d) = %d, want %d", n, got, w)
		}
	}
}

// The three E[X] computations must agree: closed form, exact Stirling
// formula, and probability DP.
func TestExpectedCopiesThreeWaysAgree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10} {
		for _, f := range []int{1, 2, 3, 4, 7, 12, 20} {
			closed := ExpectedCopies(f, n)
			exact := ExpectedCopiesExact(f, n)
			dist := CopiesDistribution(f, n)
			var dp float64
			for x, p := range dist {
				dp += float64(x) * p
			}
			if math.Abs(closed-exact) > 1e-9 {
				t.Errorf("f=%d n=%d: closed %v != stirling %v", f, n, closed, exact)
			}
			if math.Abs(closed-dp) > 1e-9 {
				t.Errorf("f=%d n=%d: closed %v != dp %v", f, n, closed, dp)
			}
		}
	}
}

func TestExpectedCopiesBounds(t *testing.T) {
	f := func(fRaw, nRaw uint8) bool {
		ff := int(fRaw%100) + 1
		n := int(nRaw%20) + 1
		e := ExpectedCopies(ff, n)
		upper := float64(ff)
		if float64(n) < upper {
			upper = float64(n) // paper: X ∈ [1, min(n,f)]
		}
		return e >= 1-1e-12 && e <= upper+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedCopiesEdgeCases(t *testing.T) {
	if ExpectedCopies(0, 5) != 0 || ExpectedCopies(5, 0) != 0 {
		t.Fatal("zero f or n must be 0")
	}
	if ExpectedCopies(7, 1) != 1 {
		t.Fatal("single partition ⇒ exactly one copy")
	}
	if got := ExpectedCopies(1, 10); got != 1 {
		t.Fatalf("f=1 ⇒ 1 copy, got %v", got)
	}
	// Monotone in f.
	prev := 0.0
	for ff := 1; ff < 50; ff++ {
		e := ExpectedCopies(ff, 10)
		if e < prev {
			t.Fatalf("E not monotone at f=%d", ff)
		}
		prev = e
	}
	// Approaches n for large f.
	if ExpectedCopies(10000, 10) < 9.999 {
		t.Fatal("E should approach n for huge f")
	}
}

func TestCopiesDistributionSumsToOne(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		for _, f := range []int{0, 1, 5, 17} {
			sum := 0.0
			for _, p := range CopiesDistribution(f, n) {
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("distribution f=%d n=%d sums to %v", f, n, sum)
			}
		}
	}
}

func histTestData(t *testing.T, keys []int64) *table.Data {
	t.Helper()
	m := catalog.MustTable("t", []catalog.Column{{Name: "k", Kind: value.Int}}, "k")
	d := table.NewData(m)
	for _, k := range keys {
		d.MustAppend(value.Tuple{k})
	}
	return d
}

func TestBuildHistogramExact(t *testing.T) {
	d := histTestData(t, []int64{1, 1, 1, 2, 2, 3})
	h, err := BuildHistogram(d, "k")
	if err != nil {
		t.Fatal(err)
	}
	if h.Distinct() != 3 || h.Rows != 6 || h.Rate != 1 {
		t.Fatalf("distinct=%d rows=%d rate=%v", h.Distinct(), h.Rows, h.Rate)
	}
	// Keys 1, 2, 3 in first-seen order.
	if !reflect.DeepEqual(h.Counts, []int{3, 2, 1}) {
		t.Fatalf("frequencies %v, want [3 2 1]", h.Counts)
	}
}

func TestBuildHistogramBadArgs(t *testing.T) {
	d := histTestData(t, []int64{1})
	if _, err := BuildHistogram(d, "nope"); err == nil {
		t.Fatal("unknown column must error")
	}
	if _, err := BuildSampledHistogram(d, 0, 1, "k"); err == nil {
		t.Fatal("rate 0 must error")
	}
	if _, err := BuildSampledHistogram(d, 1.5, 1, "k"); err == nil {
		t.Fatal("rate > 1 must error")
	}
	if _, err := BuildSampledHistogram(d, math.NaN(), 1, "k"); err == nil {
		t.Fatal("rate NaN must error")
	}
}

func TestSampledHistogramUniverse(t *testing.T) {
	// 10000 rows, 100 distinct keys each appearing 100 times. Universe
	// sampling at 10% keeps ~10 keys with their EXACT frequencies.
	keys := make([]int64, 0, 10000)
	for k := int64(0); k < 100; k++ {
		for i := 0; i < 100; i++ {
			keys = append(keys, k)
		}
	}
	d := histTestData(t, keys)
	h, err := BuildSampledHistogram(d, 0.1, 7, "k")
	if err != nil {
		t.Fatal(err)
	}
	// ~10% of the key universe survives (binomial noise allowed).
	if h.Distinct() < 3 || h.Distinct() > 25 {
		t.Fatalf("distinct sampled keys = %d, want ≈10", h.Distinct())
	}
	// Frequencies of sampled keys are exact.
	for i, f := range h.Counts {
		if f != 100 {
			t.Fatalf("sampled key %d freq = %d, want exactly 100", i, f)
		}
	}
	// Row estimate = sampled rows / rate.
	if h.Rows != h.Distinct()*100*10 {
		t.Fatalf("estimated rows = %d with %d keys", h.Rows, h.Distinct())
	}
}

func TestSampledHistogramConsistentUniverse(t *testing.T) {
	// Two tables sharing keys sample the SAME key subset (same rate and
	// seed) — the property the joint estimator relies on.
	a := histTestData(t, seqKeys(500))
	b := histTestData(t, seqKeys(500))
	ha, err := BuildSampledHistogram(a, 0.2, 9, "k")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := BuildSampledHistogram(b, 0.2, 9, "k")
	if err != nil {
		t.Fatal(err)
	}
	if ha.Distinct() != hb.Distinct() {
		t.Fatalf("sampled key counts differ: %d vs %d", ha.Distinct(), hb.Distinct())
	}
	if shared := sharedKeys(ha, hb); shared != ha.Distinct() {
		t.Fatalf("%d of %d keys sampled in both tables", shared, ha.Distinct())
	}
	// A different seed selects a different universe.
	hc, err := BuildSampledHistogram(a, 0.2, 10, "k")
	if err != nil {
		t.Fatal(err)
	}
	if sharedKeys(ha, hc) == ha.Distinct() {
		t.Fatal("different salts should select different key universes")
	}
}

func seqKeys(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// sharedKeys counts the keys a and b both hold.
func sharedKeys(a, b *Histogram) int {
	n := 0
	a.Join(b, func(int, int) { n++ })
	return n
}

// TestHistogramKeyWidths: a histogram of one, two or three columns counts
// what a value.Key-keyed reference counts, in first-seen order, whichever
// key type it uses (three columns take the value.Key path); Join matches
// keys only between histograms of the same column count, so a one-column
// key never meets a zero-padded two-column one.
func TestHistogramKeyWidths(t *testing.T) {
	cols := []catalog.Column{{Name: "a", Kind: value.Int}, {Name: "b", Kind: value.Int}, {Name: "c", Kind: value.Int}}
	m := catalog.MustTable("t", cols, "a")
	d := table.NewData(m)
	for i := int64(0); i < 200; i++ {
		d.MustAppend(value.Tuple{i % 7, 0, i % 5})
	}
	for _, names := range [][]string{{"a"}, {"a", "b"}, {"c", "b", "a"}} {
		h, err := BuildHistogram(d, names...)
		if err != nil {
			t.Fatal(err)
		}
		idx, _ := m.ColIndexes(names)
		seen := map[value.Key]int{}
		var want []int
		for _, row := range d.Rows {
			k := value.MakeKey(row, idx)
			i, ok := seen[k]
			if !ok {
				i = len(want)
				seen[k] = i
				want = append(want, 0)
			}
			want[i]++
		}
		if !reflect.DeepEqual(h.Counts, want) || h.Rows != len(d.Rows) {
			t.Errorf("%v: counts %v rows %d, want %v rows %d", names, h.Counts, h.Rows, want, len(d.Rows))
		}
		if shared := sharedKeys(h, h); shared != h.Distinct() {
			t.Errorf("%v: joins itself on %d of %d keys", names, shared, h.Distinct())
		}
	}
	one, _ := BuildHistogram(d, "a")
	two, _ := BuildHistogram(d, "a", "b")
	if shared := sharedKeys(one, two); shared != 0 {
		t.Errorf("one- and two-column histograms share %d keys", shared)
	}
}
