package cfg

import (
	"fmt"
	"strings"
)

// Summary is the interprocedural unit the call-graph fixpoint solves for:
// what each result of one function is, abstracted to a two-point lattice.
// The substrate stays agnostic about *which* values are tracked — a client
// (the propalias analyzer) decides which results carry a tracked type and
// leaves the rest untracked — and kinds only widen toward Alias, which is
// what makes Solve's fixpoint terminate.
type Summary struct {
	Results []ResultKind
}

// ResultKind classifies one result position of a callee.
type ResultKind uint8

const (
	// ResUntracked: the result is not a tracked value; callers ignore it.
	ResUntracked ResultKind = iota
	// ResAlias: the result aliases existing storage (an argument's, or
	// state reachable from one).
	ResAlias
)

func (k ResultKind) String() string {
	if k == ResAlias {
		return "alias"
	}
	return "-"
}

// Equal reports structural equality (nil equals nil only).
func (s *Summary) Equal(o *Summary) bool {
	if s == nil || o == nil {
		return s == o
	}
	if len(s.Results) != len(o.Results) {
		return false
	}
	for i := range s.Results {
		if s.Results[i] != o.Results[i] {
			return false
		}
	}
	return true
}

// String renders "(r0, ...)" deterministically for test messages; a nil
// summary renders as "unknown".
func (s *Summary) String() string {
	if s == nil {
		return "unknown"
	}
	results := make([]string, len(s.Results))
	for i, k := range s.Results {
		results[i] = k.String()
	}
	return fmt.Sprintf("(%s)", strings.Join(results, ", "))
}
