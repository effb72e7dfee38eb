package engine

import (
	"sort"

	"pref/internal/batch"
	"pref/internal/plan"
	"pref/internal/trace"
	"pref/internal/value"
)

// orderTerm is one ORDER BY term bound to its column.
type orderTerm struct {
	idx     int
	desc    bool
	isFloat bool
}

func bindOrder(order []plan.OrderSpec, sch plan.Schema) ([]orderTerm, error) {
	terms := make([]orderTerm, len(order))
	for i, o := range order {
		idx, err := sch.IndexOf(o.Col)
		if err != nil {
			return nil, err
		}
		terms[i] = orderTerm{idx: idx, desc: o.Desc, isFloat: sch[idx].Kind == value.Float}
	}
	return terms, nil
}

// compare orders two values of the term's column, kind-aware: floats decode
// before comparing.
func (t orderTerm) compare(av, bv int64) int {
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
	return cmp
}

// tieOrder lists a schema's columns in the order a top-k breaks ties by:
// the visible ones first, so tied rows are cut the same way under every
// design — a single node has no dup/hasRef columns — then the hidden index
// columns, which only make the order total.
func tieOrder(sch plan.Schema) []int {
	var visible, hidden []int
	for c, col := range sch {
		if plan.IsHiddenCol(col.Name) {
			hidden = append(hidden, c)
		} else {
			visible = append(visible, c)
		}
	}
	return append(visible, hidden...)
}

// evalTopKVec orders each partition's rows by the order terms with the full
// row as tie-breaker (tieOrder), then truncates to the limit: it sorts
// references to the input's live rows and copies out only the rows it
// keeps. The partial pass runs on every partition; the final pass sees rows
// only at the coordinator after the gather.
func (ex *executor) evalTopKVec(f *frame, n *plan.TopKNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, trace.KindTopK)
	in, err := f.input(n.Child)
	if err != nil {
		return nil, fresh, err
	}
	ex.addInputsVec(top, in)
	sch := ex.rw.Schemas[n.Child]
	terms, err := bindOrder(n.Order, sch)
	if err != nil {
		return nil, fresh, err
	}
	tie := tieOrder(sch)
	type rowRef struct {
		b *batch.Batch
		i int // live row of b
	}
	less := func(x, y rowRef) bool {
		for _, t := range terms {
			if cmp := t.compare(x.b.At(x.i, t.idx), y.b.At(y.i, t.idx)); cmp != 0 {
				return cmp < 0
			}
		}
		// Deterministic total order: full-row tie-break.
		for _, c := range tie {
			if xv, yv := x.b.At(x.i, c), y.b.At(y.i, c); xv != yv {
				return xv < yv
			}
		}
		return false
	}
	out, err := forEachPart(ex, top, func(p int) ([]*batch.Batch, int, error) {
		refs := make([]rowRef, 0, batch.Rows(in[p]))
		for _, b := range in[p] {
			for i, bn := 0, b.Len(); i < bn; i++ {
				refs = append(refs, rowRef{b, i})
			}
		}
		sort.Slice(refs, func(i, j int) bool { return less(refs[i], refs[j]) })
		if n.Limit > 0 && len(refs) > n.Limit {
			refs = refs[:n.Limit]
		}
		w := batch.NewWriter(len(sch))
		for _, r := range refs {
			w.AppendFrom(r.b, r.i)
		}
		return w.Finish(), len(refs), nil
	})
	return out, fresh, err
}
