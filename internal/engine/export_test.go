package engine

// ExecuteRef runs a query over the row reference (ref_test.go) for the
// external differential oracle (oracle_test.go).
var ExecuteRef = executeRef
