package engine

import (
	"testing"

	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
)

// ExecuteRef runs a query over the row reference (ref_test.go) for the
// external differential oracle (oracle_test.go).
var ExecuteRef = executeRef

// The read soak (soak_test.go) runs the fault and range tests' fixtures.
var (
	FaultDB      = testDB
	FaultConfigs = testConfigs
	FaultQueries = faultQueries
	DateDB       = dateDB
	DateConfigs  = dateConfigs
	DateQueries  = dateQueries
)

// Prepare partitions db under cfg and returns what rewrites a fresh plan of
// mk, with the partitions' statistics when stats is set, and runs it on
// them with its rows sorted: the cluster tests' prepared query.
func Prepare(t testing.TB, mk func() plan.Node, db *table.Database, cfg *partition.Config, stats bool) func(testing.TB, ExecOptions) (*Result, error) {
	pq := prepareQuery(t, mk, db, cfg)
	if stats {
		pq.popt = plan.Options{Stats: plan.GatherStats(pq.pdb)}
	}
	return pq.run
}
