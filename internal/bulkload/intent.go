// Write intent log: before a batch mutates any partition, the Loader
// records the full physical plan of the batch — every partition-level
// append, delete, and in-place rewrite it is about to perform, plus the
// round-robin cursors and row-count deltas the commit will install. The
// intent is planned against the last published epoch, so after a crash
// recovery can roll the head back to that epoch and re-execute the
// recorded steps verbatim: replay never re-plans, it re-applies.
package bulkload

import (
	"fmt"

	"pref/internal/value"
)

// OpKind discriminates logical write operations.
type OpKind int

const (
	// OpInsert adds one logical tuple.
	OpInsert OpKind = iota + 1
	// OpDelete removes every copy of tuples matching predicate columns.
	OpDelete
	// OpUpdate rewrites one non-partitioning column of matching tuples.
	OpUpdate
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("opkind(%d)", int(k))
	}
}

// Op is one logical write. Build them with Insert, Delete, and Update
// and submit through Loader.Apply; a batch is atomic — it commits as one
// epoch or not at all.
type Op struct {
	Kind  OpKind
	Table string

	// Row is the tuple to insert (OpInsert).
	Row value.Tuple

	// Cols/Vals are the match predicate (OpDelete, OpUpdate).
	Cols []string
	Vals value.Tuple

	// SetCol/SetVal are the rewrite target (OpUpdate).
	SetCol string
	SetVal int64
}

// Insert builds an insert op.
func Insert(tbl string, row value.Tuple) Op {
	return Op{Kind: OpInsert, Table: tbl, Row: row}
}

// Delete builds a delete op matching cols = vals.
func Delete(tbl string, cols []string, vals value.Tuple) Op {
	return Op{Kind: OpDelete, Table: tbl, Cols: cols, Vals: vals}
}

// Update builds an update op setting setCol on tuples matching cols = vals.
func Update(tbl string, cols []string, vals value.Tuple, setCol string, setVal int64) Op {
	return Op{Kind: OpUpdate, Table: tbl, Cols: cols, Vals: vals, SetCol: setCol, SetVal: setVal}
}

// AppendRec is one planned physical append: a row plus its dup/hasRef
// index bits.
type AppendRec struct {
	Row    value.Tuple
	Dup    bool
	HasRef bool
}

// SetRec is one planned in-place rewrite. Row indexes the pre-batch
// partition (valid against the published epoch the intent was planned
// on).
type SetRec struct {
	Row int
	Col int
	Val int64
}

// IntentStep is the planned mutation of one partition of one table.
// Application order within a step: Sets, then Deletes, then Appends —
// Sets and Deletes index pre-batch rows, so they must run before the
// partition grows.
type IntentStep struct {
	Table string
	Part  int

	Sets    []SetRec
	Deletes []int // ascending pre-batch row indexes to drop
	Appends []AppendRec

	// PreLen is the partition length the step was planned against, an
	// audit guard for replay.
	PreLen int
}

// IntentState tracks an intent through the write protocol.
type IntentState int

const (
	// IntentPending: logged, not yet published. A pending intent found
	// after a crash is replayed by Recover.
	IntentPending IntentState = iota + 1
	// IntentApplied: every step executed and the epoch published.
	IntentApplied
)

func (s IntentState) String() string {
	switch s {
	case IntentPending:
		return "pending"
	case IntentApplied:
		return "applied"
	default:
		return fmt.Sprintf("intentstate(%d)", int(s))
	}
}

// Intent is the durable record of one batch: the logical ops, the fully
// planned physical steps, and the bookkeeping deltas the commit installs.
type Intent struct {
	Seq       int64
	BaseEpoch int64 // database epoch the plan was computed against
	Kind      OpKind
	Table     string
	Ops       int

	Steps []IntentStep

	// RRAfter holds post-batch round-robin cursors per table; DeltaRows
	// holds per-table OriginalRows deltas. Both are installed only at
	// commit, so a crash before publish leaves them untouched and replay
	// installs them exactly once.
	RRAfter   map[string]int
	DeltaRows map[string]int

	State IntentState
}

// tables returns the distinct tables the intent mutates, in step order.
func (it *Intent) tables() []string {
	var out []string
	seen := map[string]bool{}
	for _, st := range it.Steps {
		if !seen[st.Table] {
			seen[st.Table] = true
			out = append(out, st.Table)
		}
	}
	if !seen[it.Table] {
		out = append(out, it.Table)
	}
	return out
}

// removed counts physical copies the intent deletes.
func (it *Intent) removed() int {
	n := 0
	for _, st := range it.Steps {
		n += len(st.Deletes)
	}
	return n
}

// rewritten counts physical copies the intent rewrites in place.
func (it *Intent) rewritten() int {
	n := 0
	for _, st := range it.Steps {
		n += len(st.Sets)
	}
	return n
}

// appended counts physical copies the intent stores.
func (it *Intent) appended() int {
	n := 0
	for _, st := range it.Steps {
		n += len(st.Appends)
	}
	return n
}

// IntentLog is the Loader's ordered intent journal. Applied intents are
// pruned opportunistically; pending intents (crashed batches) survive
// until Recover replays them.
type IntentLog struct {
	entries []*Intent
}

func (g *IntentLog) append(it *Intent) { g.entries = append(g.entries, it) }

// Pending returns crashed, not-yet-published intents in sequence order.
func (g *IntentLog) Pending() []*Intent {
	var out []*Intent
	for _, it := range g.entries {
		if it.State == IntentPending {
			out = append(out, it)
		}
	}
	return out
}

// Len returns the number of retained intents.
func (g *IntentLog) Len() int { return len(g.entries) }

// prune drops the applied prefix, keeping the journal bounded: once an
// intent published, its epoch is the recovery source and the intent is
// no longer needed.
func (g *IntentLog) prune() {
	i := 0
	for i < len(g.entries) && g.entries[i].State == IntentApplied {
		i++
	}
	if i > 0 {
		g.entries = append([]*Intent(nil), g.entries[i:]...)
	}
}

// RecoveryReport summarizes one Recover run.
type RecoveryReport struct {
	// Pending is the number of crashed intents found.
	Pending int
	// Replayed is the number of intents re-applied and published.
	Replayed int
	// DiscardedRows counts torn head rows thrown away by the rollback.
	DiscardedRows int
	// RepairedTables lists tables rolled back to their published epoch.
	RepairedTables []string
}
