package cluster

import "time"

// The hedge delay is hedgeMultiplier × the hedgeQuantile latency of observed
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
// of observed units (clamped to [MinDelay, MaxDelay]), the engine launches
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
	// histogram has fewer than 16 observations (default 50ms).
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

// ObserveUnit feeds one completed work-unit latency into the hedging
// histogram. The engine calls it for every winning unit attempt.
func (c *Cluster) ObserveUnit(d time.Duration) {
	if c == nil || !c.opt.Hedge.Enabled {
		return
	}
	c.lat.Observe(d)
}

// HedgeDelay prices the speculative-duplicate delay for the current
// query: hedgeMultiplier × the hedgeQuantile of observed unit latencies,
// clamped to [MinDelay, MaxDelay]. Returns ok=false when hedging is
// disabled. While the histogram is cold (fewer than hedgeMinSamples
// observations) the delay is MaxDelay: hedge only extreme outliers until
// the latency distribution is known.
func (c *Cluster) HedgeDelay() (time.Duration, bool) {
	if c == nil || !c.opt.Hedge.Enabled {
		return 0, false
	}
	h := c.opt.Hedge
	if c.lat.Count() < hedgeMinSamples {
		return h.MaxDelay, true
	}
	d := time.Duration(float64(c.lat.Quantile(hedgeQuantile)) * hedgeMultiplier)
	if d < h.MinDelay {
		d = h.MinDelay
	}
	if d > h.MaxDelay {
		d = h.MaxDelay
	}
	return d, true
}
