package engine

import "time"

// CostModel converts execution telemetry into simulated wall-clock time on
// a commodity shared-nothing cluster. The paper's testbed (m1.medium EC2,
// Section 5.1) pairs slow CPUs with a network that makes remote operators
// dominate; the defaults mirror that regime. Absolute times are not
// comparable to the paper's — the *relative* ordering of partitioning
// variants is what the model preserves.
type CostModel struct {
	// TuplePerSec is the per-node operator throughput (rows/second).
	TuplePerSec float64
	// NetBytesPerSec is the interconnect bandwidth available to a query.
	NetBytesPerSec float64
	// ExchangeLatency is the fixed startup cost per exchange operator.
	ExchangeLatency time.Duration
}

// DefaultCostModel approximates the paper's commodity cluster
// (m1.medium EC2 nodes running MySQL): slow per-node row processing
// relative to a 1 Gb/s interconnect, with a small per-exchange startup.
// In that regime per-node data volume — which replication inflates and
// PREF co-partitioning divides by n — dominates, reproducing the paper's
// variant ordering.
func DefaultCostModel() CostModel {
	return CostModel{
		TuplePerSec:     500_000,
		NetBytesPerSec:  125e6, // 1 Gb/s
		ExchangeLatency: 2 * time.Millisecond,
	}
}

// Simulate estimates the query runtime from its stats: the parallel CPU
// critical path (max per-node rows) plus network transfer time plus
// exchange startup latency, which a runtime filter's transfer pays like any
// other exchange.
func (c CostModel) Simulate(s Stats) time.Duration {
	cpu := time.Duration(float64(s.MaxNodeRows) / c.TuplePerSec * float64(time.Second))
	net := time.Duration(float64(s.BytesShipped) / c.NetBytesPerSec * float64(time.Second))
	exch := time.Duration(s.Repartitions+s.Broadcasts+s.Transfers) * c.ExchangeLatency
	return cpu + net + exch
}
