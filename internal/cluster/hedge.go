package cluster

import (
	"sort"
	"sync"
	"time"
)

// latencyWindow is the ring-buffer size of the cross-query unit-latency
// sampler: large enough for a stable tail estimate, small enough that the
// estimate tracks regime changes within a few queries.
const latencyWindow = 512

// The hedge delay is hedgeMultiplier × the hedgeQuantile latency of recent
// units: a unit must run twice as long as the tail of its peers before a
// duplicate launches. The quantile is trusted once hedgeMinSamples unit
// latencies have been observed.
const (
	hedgeQuantile   = 0.95
	hedgeMultiplier = 2
	hedgeMinSamples = 16
)

// HedgePolicy configures speculative duplicates for straggling work
// units. When a partition's unit has run longer than 2 × the p95 latency
// of recent units (clamped to [MinDelay, MaxDelay]), the engine launches
// a duplicate of the unit on a surviving buddy node; the first result
// wins and the loser is cancelled, its output metered as wasted hedge
// work. The zero value disables hedging.
type HedgePolicy struct {
	// Enabled turns hedging on.
	Enabled bool
	// MinDelay and MaxDelay clamp the delay. MinDelay guards against
	// hedging everything when the cluster is uniformly fast (default
	// 100µs); MaxDelay bounds how long a straggler is waited on before
	// the duplicate launches, and is also the cold-start delay while the
	// sampler has fewer than 16 observations (default 50ms).
	MinDelay time.Duration
	MaxDelay time.Duration
}

// withDefaults fills unset policy fields.
func (h HedgePolicy) withDefaults() HedgePolicy {
	if h.MinDelay <= 0 {
		h.MinDelay = 100 * time.Microsecond
	}
	if h.MaxDelay <= 0 {
		h.MaxDelay = 50 * time.Millisecond
	}
	return h
}

// sampler is a fixed-window reservoir of recent work-unit latencies,
// shared across queries. It is deliberately simple: a mutex-guarded ring
// buffer plus a sort on read — unit counts are small (partitions ×
// operators per query) and the quantile is read once per query.
type sampler struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	n    int // observations stored, ≤ len(buf)
}

func (s *sampler) init(window int) {
	s.buf = make([]time.Duration, window)
}

// observe records one unit latency.
func (s *sampler) observe(d time.Duration) {
	s.mu.Lock()
	s.buf[s.next] = d
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
}

// quantile returns the q-quantile of the stored latencies and the number
// of observations backing it.
func (s *sampler) quantile(q float64) (time.Duration, int) {
	s.mu.Lock()
	n := s.n
	snap := make([]time.Duration, n)
	copy(snap, s.buf[:n])
	s.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return snap[i], n
}

// ObserveUnit feeds one completed work-unit latency into the hedging
// sampler. The engine calls it for every winning unit attempt.
func (c *Cluster) ObserveUnit(d time.Duration) {
	if c == nil || !c.opt.Hedge.Enabled {
		return
	}
	c.lat.observe(d)
}

// HedgeDelay prices the speculative-duplicate delay for the current
// query: hedgeMultiplier × the hedgeQuantile of recent unit latencies,
// clamped to [MinDelay, MaxDelay]. Returns ok=false when hedging is
// disabled. While the sampler is cold (fewer than hedgeMinSamples
// observations) the delay is MaxDelay: hedge only extreme outliers until
// the latency distribution is known.
func (c *Cluster) HedgeDelay() (time.Duration, bool) {
	if c == nil || !c.opt.Hedge.Enabled {
		return 0, false
	}
	h := c.opt.Hedge
	q, n := c.lat.quantile(hedgeQuantile)
	if n < hedgeMinSamples {
		return h.MaxDelay, true
	}
	d := time.Duration(float64(q) * hedgeMultiplier)
	if d < h.MinDelay {
		d = h.MinDelay
	}
	if d > h.MaxDelay {
		d = h.MaxDelay
	}
	return d, true
}
