package stats

import (
	"testing"
	"time"
)

func TestHistQuantiles(t *testing.T) {
	var h Latency
	if h.Quantile(0.99) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	sum := h.Summarize()
	if sum.Count != 1000 {
		t.Fatalf("count = %d", sum.Count)
	}
	if sum.Max != 1000*time.Millisecond {
		t.Fatalf("max = %v, want exact 1s", sum.Max)
	}
	// Log buckets guarantee the quantile errs high by at most the bucket
	// growth factor.
	check := func(name string, got, exact time.Duration) {
		t.Helper()
		if got < exact || float64(got) > float64(exact)*latGrowth {
			t.Fatalf("%s = %v, want within [%v, %v·%v)", name, got, exact, exact, latGrowth)
		}
	}
	check("p50", sum.P50, 500*time.Millisecond)
	check("p99", sum.P99, 990*time.Millisecond)
	check("p999", sum.P999, 999*time.Millisecond)
	if sum.Mean < 400*time.Millisecond || sum.Mean > 600*time.Millisecond {
		t.Fatalf("mean = %v, want ~500ms", sum.Mean)
	}
}
