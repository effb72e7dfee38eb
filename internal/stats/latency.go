package stats

import (
	"sync"
	"time"
)

// Latency is a concurrency-safe log-bucketed latency histogram: buckets
// grow geometrically from 1µs, so quantiles carry a bounded relative error
// (~12%) at any scale from microseconds to minutes with a fixed, tiny
// footprint. It is the module's one latency-quantile estimator: the serving
// layer keeps one for successful queries (the bench layer reads
// p50/p99/p999 off it per load regime), and the cluster layer keeps one of
// work-unit latencies to price the hedging delay.
type Latency struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	max     time.Duration
	buckets [latBuckets]int64
}

const (
	latBuckets = 96
	latBase    = time.Microsecond
	// latGrowth is the per-bucket width multiplier: 1.25^96 spans 1µs to
	// ~27min.
	latGrowth = 1.25
)

// latBounds[i] is the inclusive upper bound of bucket i.
var latBounds = func() [latBuckets]time.Duration {
	var b [latBuckets]time.Duration
	f := float64(latBase)
	for i := range b {
		b[i] = time.Duration(f)
		f *= latGrowth
	}
	return b
}()

// bucketOf maps a duration to its bucket index.
func bucketOf(d time.Duration) int {
	lo, hi := 0, latBuckets-1
	for lo < hi {
		mid := (lo + hi) / 2
		if latBounds[mid] >= d {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one latency sample.
func (h *Latency) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.buckets[bucketOf(d)]++
	h.mu.Unlock()
}

// Count returns the number of recorded samples.
func (h *Latency) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of the recorded samples (0 when empty).
func (h *Latency) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile returns the latency at quantile q in [0, 1] — the upper bound
// of the bucket holding the q·count-th sample, capped at the observed
// maximum, so the estimate errs conservatively (never under-reports a
// tail). Returns 0 when empty; q=1 returns the exact observed maximum.
func (h *Latency) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if q < 0 {
		q = 0
	}
	rank := int64(q*float64(h.count-1)) + 1
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			if latBounds[i] > h.max {
				return h.max
			}
			return latBounds[i]
		}
	}
	return h.max
}

// LatencySummary is a fixed quantile snapshot of one histogram.
type LatencySummary struct {
	Count          int64
	Mean           time.Duration
	P50, P99, P999 time.Duration
	Max            time.Duration
}

// Summarize snapshots the standard serving quantiles.
func (h *Latency) Summarize() LatencySummary {
	return LatencySummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Quantile(1),
	}
}
