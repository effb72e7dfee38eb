// Package check statically verifies the invariants the PREF rewrite and
// partitioning design rely on, without executing anything — the
// correctness analogue of a sanitizer for the query engine.
//
// It has two prongs:
//
//   - Verify walks a rewritten physical plan and re-derives the Dup/Part
//     property algebra of Section 2.2 bottom-up with an independent
//     implementation, then diffs the result against what the rewrite
//     recorded. On the way it proves join locality (every hash join's
//     inputs co-partitioned on the join keys, or preceded by a
//     Repartition/Broadcast) and duplicate-freedom (no live dup columns
//     survive into aggregates, order-by, projections, or the root). Column
//     pruning is held to both sides of its contract: a join or exchange
//     may record any order-preserving subset of its natural schema, every
//     reference above it must still bind, the root and the inputs of top-k
//     and value-distinct must lose nothing — and, top-down, no join or
//     exchange may carry a column that nothing above reads. Every runtime
//     join filter must sit where a dropped row could not have joined.
//   - VerifyDesign checks a partitioning configuration against a catalog
//     schema: PREF predicate chains must be acyclic, rooted at a proper
//     seed table (Section 2.1, Definition 1), and reference only existing
//     columns with equi-join-compatible types.
//
// The Dup/Part rules stay sound over pruned schemas because none of them
// reads a schema's width or a column's position: locality, duplicate
// freedom and placement are decided from Prop column names and the
// operators' own column lists, and a Prop may name a hash column the schema
// no longer carries (a fact about where rows sit, not a reference).
//
// A plan that silently violates these invariants produces wrong answers,
// not crashes, which is why they are checked statically before any tuple
// moves. The engine runs Verify before every ExecuteCtx when the PREF_VERIFY
// debug flag (or ExecOptions.Verify) is set; cmd/prefcheck runs both
// prongs from the command line.
package check

import (
	"errors"
	"fmt"
	"strings"

	"pref/internal/plan"
)

// Rule identifies one class of checked invariant.
type Rule string

// Plan rules (Verify).
const (
	// RuleMalformed marks structurally broken plans: unknown tables or
	// columns, missing annotations, schema/arity mismatches, OneCopy flags
	// that disagree with the input's replication, cyclic plan graphs.
	RuleMalformed Rule = "malformed"
	// RuleStaleProp marks recorded Dup/Part properties that differ from
	// the independently recomputed ones (the rewrite recorded a claim it
	// cannot prove, or a weaker claim than it could).
	RuleStaleProp Rule = "stale-prop"
	// RuleLocality marks joins and aggregations whose inputs are not
	// provably co-partitioned and not preceded by a Repartition/Broadcast
	// (the Section 2.2 co-location cases), and any operator but a filter, a
	// projection or the inner join on their PREF predicate that reads sums
	// whose orphan groups may be split (Prop.Orphans).
	RuleLocality Rule = "locality"
	// RuleDupLeak marks live PREF duplicate columns surviving into an
	// operator that must see duplicate-free input (aggregates, top-k,
	// projections, shipping operators that do not dedup, the plan root).
	RuleDupLeak Rule = "dup-leak"
	// RuleDeadColumn marks a join or exchange (Repartition, Broadcast,
	// Gather) whose recorded schema carries a column no operator above it
	// reads: bytes emitted or shipped for nothing, which the rewrite's
	// column pruning exists to remove.
	RuleDeadColumn Rule = "dead-column"
	// RuleTransfer marks a runtime join filter that could drop a row its
	// join needs: it filters a column its input does not carry, reaches its
	// join through an operator that does not pass that column up unchanged,
	// or sits on an input the join does not filter (its source, or an Anti
	// or LeftOuter join's left input).
	RuleTransfer Rule = "transfer"
	// RuleLookup marks a partial aggregate that runs below joins its states
	// may not cross: a join between it and its final aggregate's exchange
	// that is not an inner equi-join with a lookup (a base table every node
	// holds whole, joined on its primary key), an input of those joins or of
	// the partial with live PREF duplicates, or a final aggregate whose
	// arguments read a lookup column.
	RuleLookup Rule = "lookup"
)

// Design rules (VerifyDesign).
const (
	// RuleDesignCycle marks cyclic PREF predicate chains.
	RuleDesignCycle Rule = "design-cycle"
	// RuleDesignSeed marks PREF chains not rooted at a proper seed table
	// (dangling references, or a replicated/ill-formed seed).
	RuleDesignSeed Rule = "design-seed"
	// RuleDesignColumn marks schemes referencing unknown tables/columns.
	RuleDesignColumn Rule = "design-column"
	// RuleDesignType marks partitioning predicates whose column pairs are
	// not equi-join compatible (different value kinds).
	RuleDesignType Rule = "design-type"
	// RuleDesignShape marks structural config problems: bad predicate
	// arity, wrong Range bounds, non-positive partition counts.
	RuleDesignShape Rule = "design-shape"
)

// Violation is one invariant breach. It implements error.
type Violation struct {
	Rule   Rule
	Node   plan.Node // offending operator (nil for design violations)
	Table  string    // offending table (design violations)
	Detail string
}

func (v *Violation) Error() string {
	var loc string
	switch {
	case v.Node != nil:
		loc = " at " + v.Node.String()
	case v.Table != "":
		loc = " at table " + v.Table
	}
	return fmt.Sprintf("check[%s]%s: %s", v.Rule, loc, v.Detail)
}

// Violations is every breach found by one verification run. It implements
// error so Verify can return the full set at once.
type Violations []*Violation

func (vs Violations) Error() string {
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.Error()
	}
	return fmt.Sprintf("%d invariant violation(s):\n  %s", len(vs), strings.Join(msgs, "\n  "))
}

// HasRule reports whether any violation carries the given rule.
func (vs Violations) HasRule(r Rule) bool {
	for _, v := range vs {
		if v.Rule == r {
			return true
		}
	}
	return false
}

// ViolationsOf extracts the violation set from an error returned by this
// package (possibly wrapped), or nil for foreign errors.
func ViolationsOf(err error) Violations {
	var vs Violations
	if errors.As(err, &vs) {
		return vs
	}
	var v *Violation
	if errors.As(err, &v) {
		return Violations{v}
	}
	return nil
}

// Verify statically checks a rewritten plan and the design it was
// rewritten against. It returns nil when every invariant holds, or a
// Violations error listing every breach found.
func Verify(rw *plan.Rewritten) error {
	if rw == nil || rw.Root == nil {
		return Violations{{Rule: RuleMalformed, Detail: "nil plan"}}
	}
	var vs Violations
	if rw.Catalog == nil || rw.Cfg == nil {
		return Violations{{Rule: RuleMalformed,
			Detail: "rewritten plan records no catalog/config (not produced by plan.Rewrite?)"}}
	}
	vs = append(vs, verifyDesign(rw.Catalog, rw.Cfg)...)

	c := newChecker(rw)
	root := c.visit(rw.Root)
	c.checkRoot(rw.Root, root)
	if len(c.vs) == 0 {
		// Only a well-formed tree is worth walking again: the result is read
		// whole, everything below it only as far as something above asks.
		c.checkLive(rw.Root, reads{}.plus(root.sch.Names()...))
		c.checkTransfers(rw.Root, nil)
	}
	vs = append(vs, c.vs...)
	if len(vs) == 0 {
		return nil
	}
	return vs
}
