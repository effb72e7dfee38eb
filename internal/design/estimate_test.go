package design

import (
	"math"
	"testing"

	"pref/internal/catalog"
	"pref/internal/partition"
	"pref/internal/stats"
	"pref/internal/table"
	"pref/internal/value"
)

func hist(t *testing.T, keys []int64, rate float64, seed int64) *stats.Histogram {
	t.Helper()
	m := catalog.MustTable("h", []catalog.Column{{Name: "k", Kind: value.Int}}, "k")
	d := table.NewData(m)
	for _, k := range keys {
		d.MustAppend(value.Tuple{k})
	}
	h, err := stats.BuildSampledHistogram(d, rate, seed, "k")
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// factor is jointRedundancyFactor of ref and ring matched afresh.
func factor(ref, ring *stats.Histogram, n int, refInflation float64) float64 {
	return jointRedundancyFactor(ref.Match(ring), ring, n, refInflation)
}

func repeat(k int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = k
	}
	return out
}

func seq(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func TestJointFactorUniqueKeys(t *testing.T) {
	// Referenced key unique, every referencing tuple matched: factor 1.
	ref := hist(t, seq(100), 1, 0)
	ring := hist(t, seq(100), 1, 0)
	if got := factor(ref, ring, 10, 1); got != 1 {
		t.Fatalf("unique-matched factor = %v, want 1", got)
	}
}

func TestJointFactorAllOrphans(t *testing.T) {
	// No key overlap: every referencing tuple stored once.
	ref := hist(t, seq(50), 1, 0)
	ring := hist(t, []int64{100, 101, 102}, 1, 0)
	if got := factor(ref, ring, 10, 1); got != 1 {
		t.Fatalf("all-orphan factor = %v, want 1", got)
	}
}

func TestJointFactorHotKey(t *testing.T) {
	// One referenced key with frequency 1000 (≈ fully scattered over 10
	// partitions); half the referencing rows match it, half are orphans.
	refKeys := repeat(7, 1000)
	ringKeys := append(repeat(7, 10), seq(10)[0:0]...)
	ringKeys = append(ringKeys, []int64{900, 901, 902, 903, 904, 905, 906, 907, 908, 909}...)
	ref := hist(t, refKeys, 1, 0)
	ring := hist(t, ringKeys, 1, 0)
	got := factor(ref, ring, 10, 1)
	// matched 10 rows × E[1000,10]≈10 copies + 10 orphans = ~110 of 20.
	want := (10*stats.ExpectedCopies(1000, 10) + 10) / 20
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("hot-key factor = %v, want %v", got, want)
	}
}

func TestJointFactorClampsAtN(t *testing.T) {
	ref := hist(t, repeat(1, 100000), 1, 0)
	ring := hist(t, repeat(1, 5), 1, 0)
	if got := factor(ref, ring, 4, 1); got != 4 {
		t.Fatalf("factor = %v, want clamp at n=4", got)
	}
}

func TestJointFactorEmptyRing(t *testing.T) {
	ref := hist(t, seq(10), 1, 0)
	ring := hist(t, nil, 1, 0)
	if got := factor(ref, ring, 4, 1); got != 1 {
		t.Fatalf("empty referencing factor = %v, want 1", got)
	}
}

func TestJointFactorInflationSaturates(t *testing.T) {
	// 100 keys, referenced freq 3, all referencing rows matched. With a
	// large upstream inflation the per-tuple copies saturate at n instead
	// of multiplying past it.
	var refKeys, ringKeys []int64
	for k := int64(0); k < 100; k++ {
		refKeys = append(refKeys, repeat(k, 3)...)
		ringKeys = append(ringKeys, k)
	}
	ref := hist(t, refKeys, 1, 0)
	ring := hist(t, ringKeys, 1, 0)
	plain := factor(ref, ring, 10, 1)
	inflated := factor(ref, ring, 10, 5)
	if inflated <= plain {
		t.Fatalf("inflation must increase copies: %v vs %v", inflated, plain)
	}
	if inflated > 10 {
		t.Fatalf("copies per tuple must saturate at n: %v", inflated)
	}
	want := stats.ExpectedCopiesReal(15, 10)
	if math.Abs(inflated-want) > 1e-9 {
		t.Fatalf("inflated factor = %v, want E[15,10] = %v", inflated, want)
	}
}

func TestJointFactorUnderSampling(t *testing.T) {
	// 200 shared keys, referenced freq 5 each, referencing freq 2 each.
	var refKeys, ringKeys []int64
	for k := int64(0); k < 200; k++ {
		refKeys = append(refKeys, repeat(k, 5)...)
		ringKeys = append(ringKeys, repeat(k, 2)...)
	}
	exact := factor(hist(t, refKeys, 1, 3), hist(t, ringKeys, 1, 3), 10, 1)
	sampled := factor(hist(t, refKeys, 0.3, 3), hist(t, ringKeys, 0.3, 3), 10, 1)
	if math.Abs(exact-sampled)/exact > 0.15 {
		t.Fatalf("sampled factor %v deviates from exact %v", sampled, exact)
	}
}

// The estimator end-to-end: estimated DR tracks actual DR across seed
// choices on the mini TPC-H schema.
func TestEstimateTracksActualAcrossSeeds(t *testing.T) {
	db := miniTPCH(t)
	sizes := SizesOf(db)
	hp := NewHistProvider(db, 1, 0)
	gs := SchemaGraph(db.Schema, sizes)
	mast := gs.MaximumSpanningTree()
	for _, seed := range mast.Nodes() {
		cfg, _, err := BuildPC(mast, []string{seed}, db.Schema, 10)
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateConfig(cfg, sizes, hp)
		if err != nil {
			t.Fatal(err)
		}
		pdb, err := partition.Apply(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		actual := pdb.DataRedundancy()
		predicted := est.DR()
		if math.Abs(predicted-actual) > 0.10*(1+actual) {
			t.Errorf("seed %s: predicted DR %.4f vs actual %.4f", seed, predicted, actual)
		}
	}
}
