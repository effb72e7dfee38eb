package engine

import (
	"time"

	"pref/internal/plan"
)

// CostModel converts execution telemetry into simulated wall-clock time: it
// is plan.CostModel, the model the rewrite's estimator prices its choices
// with, applied to a finished execution's exact counts.
type CostModel plan.CostModel

// DefaultCostModel approximates the paper's commodity cluster (see
// plan.DefaultCostModel).
func DefaultCostModel() CostModel { return CostModel(plan.DefaultCostModel()) }

// Simulate estimates the query runtime from its stats: the parallel CPU
// critical path (max per-node rows) plus network transfer time plus
// exchange startup latency, which a shipped runtime filter's transfer pays
// like any other exchange (a local one ships nothing).
func (c CostModel) Simulate(s Stats) time.Duration {
	return plan.CostModel(c).Time(float64(s.MaxNodeRows), float64(s.BytesShipped),
		s.Repartitions+s.Broadcasts+s.Transfers)
}
