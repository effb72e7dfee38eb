package plan

import "time"

// CostModel converts execution telemetry into simulated wall-clock time on
// a commodity shared-nothing cluster. The paper's testbed (m1.medium EC2,
// Section 5.1) pairs slow CPUs with a network that makes remote operators
// dominate; the defaults mirror that regime. Absolute times are not
// comparable to the paper's — the *relative* ordering of partitioning
// variants is what the model preserves.
//
// It is the one cost model of the module: engine.CostModel prices a finished
// execution's exact counts with it, and the rewrite's estimator prices the
// alternatives it weighs (estimate.go) in the same three terms.
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

// Time is the simulated runtime of a query whose busiest node processes
// nodeRows rows, which ships bytes across node boundaries and starts
// exchanges exchange operators: the parallel CPU critical path plus network
// transfer time plus exchange startup latency.
func (c CostModel) Time(nodeRows, bytes float64, exchanges int) time.Duration {
	cpu := time.Duration(nodeRows / c.TuplePerSec * float64(time.Second))
	net := time.Duration(bytes / c.NetBytesPerSec * float64(time.Second))
	exch := time.Duration(exchanges) * c.ExchangeLatency
	return cpu + net + exch
}
