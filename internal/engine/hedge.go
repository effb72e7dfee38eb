package engine

import "errors"

// Hedged execution for straggling partition units.
//
// A single slow node dominates a parallel operator's latency: every
// partition must finish before the next operator starts, so the fan-out
// runs at the speed of its slowest unit. When a cluster health layer is
// attached and its hedge policy enabled, runPart (unit.go) races a
// speculative duplicate against any unit that has run longer than the
// cluster's quantile-priced delay: the duplicate runs the same partition's
// work on the next surviving node (unit closures are pure functions of the
// partition id that only read their operator's input, so either copy
// produces identical rows), the first result wins, the loser is
// cancelled and its discarded output metered as wasted hedge work on the
// operator's cells. The race machinery itself (runHedged, runAttempt) lives
// in unit.go, generic over the unit payload.

// errHedgeLost is the sentinel a hedge-race loser returns after the
// winner's result was already taken. It never escapes runHedged: a loser
// exists only when a winner has already returned the partition's rows.
var errHedgeLost = errors.New("engine: lost hedge race")
