// Package cluster is the long-lived membership and health layer between
// the engine and the fault injector: where the engine's fault handling is
// per-query (retry, failover, redundancy recovery), this package carries
// what one query learned into the next. Each node runs a health state
// machine (healthy → suspect → down → recovering → healthy) driven by
// per-attempt outcomes the engine reports, with a per-node circuit
// breaker: consecutive failures trip the node out of the placement so
// later queries route around it instead of re-paying the same retries, a
// cool-down counted in completed queries leads to a half-open probe, and
// the query whose probe passes re-materializes the node's partitions from
// PREF/replication redundancy in its pinned snapshot before flipping it
// back to healthy.
//
// The layer is a mutex-guarded state machine: it owns no goroutine, and
// every transition happens inside a caller's method call. Besides health
// it keeps one more thing that spans queries: a stats.Latency histogram of
// work-unit latencies that prices the hedging delay for straggler
// duplicates. It bounds nothing and caches nothing. Admission — quotas,
// shedding, the bounded queue — is the serving layer's (internal/serve);
// the degraded placement is a loop over the node count, computed per
// query; and which partitions hold a copy of a row is a fact of the
// published table version (table.Version.Copies), not of cluster health.
//
// A nil *Cluster is valid everywhere and disables the layer, mirroring
// the nil-injector convention of internal/fault.
package cluster

import (
	"errors"
	"fmt"
	"sync"

	"pref/internal/stats"
	"pref/internal/table"
)

// Typed errors surfaced to query callers.
var (
	// ErrNodeTripped reports a work unit aborted because its node's
	// circuit breaker tripped mid-query: further retries against the node
	// would be burned, so the unit fails fast and the next query routes
	// around the node entirely.
	ErrNodeTripped = errors.New("cluster: node circuit breaker tripped")
	// ErrClosed reports an operation against a closed cluster.
	ErrClosed = errors.New("cluster: closed")
)

// State is one node's position in the health state machine.
type State int

const (
	// Healthy nodes serve work.
	Healthy State = iota
	// Suspect nodes have failed recently but still serve work; one more
	// failure streak trips them, one success clears them.
	Suspect
	// Down nodes have an open circuit breaker: the placement routes
	// around them and no work units run on them until a probe succeeds.
	Down
	// Recovering nodes passed a half-open probe and are being rebuilt
	// from redundancy by the probing query; other queries route around
	// them until the rebuild completes.
	Recovering
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Recovering:
		return "recovering"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Options configures a cluster health layer. The zero value of every
// field gets a sensible default from New.
type Options struct {
	// Nodes is the logical node count (required, must match the
	// partitioned databases executed against the cluster).
	Nodes int
	// TripAfter is the consecutive-failure count that trips the breaker,
	// moving the node to down (default 3).
	TripAfter int
	// CoolDownQueries is how many completed queries must pass after a
	// trip (or a failed probe) before the breaker goes half-open and the
	// next query probes the node (default 2). Counting in queries rather
	// than wall time keeps tests deterministic.
	CoolDownQueries int
	// Hedge configures speculative duplicates for straggling units.
	Hedge HedgePolicy
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.TripAfter <= 0 {
		o.TripAfter = 3
	}
	if o.CoolDownQueries <= 0 {
		o.CoolDownQueries = 2
	}
	o.Hedge = o.Hedge.withDefaults()
	return o
}

// node is one node's live health record.
type node struct {
	state       State
	consecFails int
	coolDown    int  // completed queries until the breaker goes half-open
	probes      int  // failed half-open probes since the trip
	recovered   bool // healed and rebuilt: injected node faults are cleared
	lost        bool // rebuild found unrecoverable data: down for good
}

// Stats is a snapshot of the cluster's cross-query counters.
type Stats struct {
	// Admitted counts queries begun; Rejected those refused because the
	// cluster was closed. Nothing else rejects here: the layer has no queue.
	Admitted int64
	Rejected int64
	// Trips counts breaker openings; Probes counts half-open probes.
	Trips  int64
	Probes int64
	// Every passed probe rebuilds: Rebuilds counts the nodes that came
	// back; RebuiltRows / RebuiltBytes meter the data re-materialized from
	// surviving duplicate copies; FailedRebuilds counts nodes whose data
	// had no surviving copy (the node stays down).
	Rebuilds       int64
	RebuiltRows    int64
	RebuiltBytes   int64
	FailedRebuilds int64
}

// View is an immutable snapshot of cluster health, taken once per query
// by BeginQuery. Serving[n] is false for down and recovering nodes (the
// placement must route around them); Recovered[n] marks nodes that healed
// and were rebuilt (the engine clears their injected faults); Probes[n]
// is the failed-probe count the fault hooks consume.
type View struct {
	Serving   []bool
	Recovered []bool
	Probes    []int
}

// Cluster is the long-lived health layer. All methods are safe for
// concurrent use and safe on a nil receiver (layer disabled).
type Cluster struct {
	opt Options

	mu     sync.Mutex
	nodes  []node
	stats  Stats
	closed bool

	// lat prices the hedging delay from observed unit latencies.
	lat stats.Latency
}

// New builds a cluster health layer for opt.Nodes nodes.
func New(opt Options) *Cluster {
	opt = opt.withDefaults()
	if opt.Nodes <= 0 {
		// A cluster without nodes is a programming error at the call site,
		// on par with a negative partition count.
		// lint:invariant
		panic(fmt.Sprintf("cluster: invalid node count %d", opt.Nodes))
	}
	return &Cluster{opt: opt, nodes: make([]node, opt.Nodes)}
}

// Close makes the cluster refuse every later query with ErrClosed.
// Idempotent.
func (c *Cluster) Close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// endQuery ticks breaker cool-downs: each completed query brings every
// down node one step closer to a half-open probe.
func (c *Cluster) endQuery() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.nodes {
		n := &c.nodes[i]
		if n.state == Down && !n.lost && n.coolDown > 0 {
			n.coolDown--
		}
	}
}

// BeginQuery opens one query's bracket on the cluster: it counts the
// query, snapshots health, and performs the health work that anchors to a
// query's start:
//
//   - nodes the fault layer reports as down right now (downNow) are
//     tripped immediately — the simulation analogue of a refused
//     connection, which needs no failed retries to detect;
//   - down nodes whose cool-down expired get a half-open probe (probeOK);
//     a passed probe moves the node to recovering, and this call then
//     rebuilds its partitions from snap (see rebuild.go).
//
// snap is the data snapshot the caller pinned for the query (the last
// epoch the write path published); the rebuild reads it and the cluster
// keeps no reference to it. It may be nil when there is no data (probed
// nodes then recover without a rebuild). BeginQuery returns the view after
// any rebuild, the number of probes performed, and done, which the caller
// must call when the query completes: it ticks the breaker cool-downs,
// counted in completed queries, and is a no-op after its first call. A
// closed cluster refuses the query with ErrClosed. Either hook may be nil.
func (c *Cluster) BeginQuery(snap *table.DBSnapshot, downNow func(node int) bool, probeOK func(node, probes int) bool) (v View, probed int, done func(), err error) {
	if c == nil {
		return View{}, 0, func() {}, nil
	}
	c.mu.Lock()
	if c.closed {
		c.stats.Rejected++
		c.mu.Unlock()
		return View{}, 0, nil, ErrClosed
	}
	c.stats.Admitted++
	var passed []int
	for i := range c.nodes {
		n := &c.nodes[i]
		switch n.state {
		case Healthy, Suspect:
			if downNow != nil && !n.recovered && downNow(i) {
				c.trip(i)
			}
		case Down:
			if n.lost || n.coolDown > 0 || probeOK == nil {
				continue
			}
			// Half-open: one trial request decides.
			probed++
			c.stats.Probes++
			if probeOK(i, n.probes) {
				c.setState(i, Recovering)
				passed = append(passed, i)
			} else {
				n.probes++
				n.coolDown = c.opt.CoolDownQueries
			}
		}
	}
	c.mu.Unlock()
	// Outside the lock: queries that begin meanwhile see the passed nodes
	// recovering and route around them.
	for _, id := range passed {
		c.rebuild(snap, id)
	}
	var once sync.Once
	return c.View(), probed, func() { once.Do(c.endQuery) }, nil
}

// ReportSuccess records a completed work unit on a node: consecutive
// failures reset and a suspect node is cleared back to healthy.
func (c *Cluster) ReportSuccess(nodeID int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := &c.nodes[nodeID]
	n.consecFails = 0
	if n.state == Suspect {
		c.setState(nodeID, Healthy)
	}
}

// ReportFailure records a failed work-unit attempt on a node, driving the
// healthy → suspect → down legs of the state machine: the first failure
// makes a healthy node suspect, and reaching the trip threshold opens the
// breaker.
func (c *Cluster) ReportFailure(nodeID int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := &c.nodes[nodeID]
	if n.state == Down || n.state == Recovering {
		return
	}
	n.consecFails++
	if n.consecFails >= c.opt.TripAfter {
		c.trip(nodeID)
		return
	}
	if n.state == Healthy {
		c.setState(nodeID, Suspect)
	}
}

// Allow reports whether work may still be sent to the node: false once
// the breaker is open (down or recovering). Engines consult it between
// retry attempts to stop burning a budget on a node that tripped
// mid-query.
func (c *Cluster) Allow(nodeID int) bool {
	if c == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.nodes[nodeID].state
	return s == Healthy || s == Suspect
}

// trip opens the breaker: the node leaves the placement until a probe
// succeeds. Callers hold c.mu.
func (c *Cluster) trip(nodeID int) {
	n := &c.nodes[nodeID]
	if n.state == Down {
		return
	}
	c.stats.Trips++
	n.coolDown = c.opt.CoolDownQueries
	n.probes = 0
	n.recovered = false
	c.setState(nodeID, Down)
}

// setState transitions a node. Callers hold c.mu.
func (c *Cluster) setState(nodeID int, s State) {
	n := &c.nodes[nodeID]
	n.state = s
	if s == Healthy {
		n.consecFails = 0
	}
}

// NodeState returns one node's current health state.
func (c *Cluster) NodeState(nodeID int) State {
	if c == nil {
		return Healthy
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[nodeID].state
}

// View returns the current health snapshot without performing probes.
func (c *Cluster) View() View {
	if c == nil {
		return View{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.viewLocked()
}

func (c *Cluster) viewLocked() View {
	v := View{
		Serving:   make([]bool, len(c.nodes)),
		Recovered: make([]bool, len(c.nodes)),
		Probes:    make([]int, len(c.nodes)),
	}
	for i := range c.nodes {
		s := c.nodes[i].state
		v.Serving[i] = s == Healthy || s == Suspect
		v.Recovered[i] = c.nodes[i].recovered
		v.Probes[i] = c.nodes[i].probes
	}
	return v
}

// Stats returns a snapshot of the cross-query counters.
func (c *Cluster) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
