package engine

import (
	"sort"

	"pref/internal/plan"
	"pref/internal/trace"
	"pref/internal/value"
)

// evalTopK orders each partition's rows by the order terms (kind-aware:
// floats decode before comparing) with the full row as tie-breaker, then
// truncates to the limit. The partial pass runs on every partition; the
// final pass sees rows only at the coordinator after the gather.
func (ex *executor) evalTopK(n *plan.TopKNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindTopK)
	in, err := ex.dispatch(ex, n.Child)
	if err != nil {
		return nil, err
	}
	ex.addInputs(top, in)
	sch := ex.rw.Schemas[n.Child]

	type term struct {
		idx     int
		desc    bool
		isFloat bool
	}
	terms := make([]term, len(n.Order))
	for i, o := range n.Order {
		idx, err := sch.IndexOf(o.Col)
		if err != nil {
			return nil, err
		}
		terms[i] = term{idx: idx, desc: o.Desc, isFloat: sch[idx].Kind == value.Float}
	}
	less := func(a, b value.Tuple) bool {
		for _, t := range terms {
			av, bv := a[t.idx], b[t.idx]
			var cmp int
			if t.isFloat {
				af, bf := value.ToFloat(av), value.ToFloat(bv)
				switch {
				case af < bf:
					cmp = -1
				case af > bf:
					cmp = 1
				}
			} else {
				switch {
				case av < bv:
					cmp = -1
				case av > bv:
					cmp = 1
				}
			}
			if t.desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		// Deterministic total order: full-row tie-break.
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}

	return forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		rows := append([]value.Tuple(nil), in[p]...)
		sort.Slice(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
		if n.Limit > 0 && len(rows) > n.Limit {
			rows = rows[:n.Limit]
		}
		return rows, len(rows), nil
	})
}
