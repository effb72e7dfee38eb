package engine

import (
	"time"

	"pref/internal/plan"
	"pref/internal/trace"
	"pref/internal/value"
)

// aggState is the accumulator of one aggregate for one group. Int/Money
// sums stay in int64, so partial states merge exactly in any order; only
// Float-kind arguments use the float fields.
type aggState struct {
	isum     int64   // sum over int-encoded values
	fsum     float64 // sum over float-encoded values
	cnt      int64   // non-null inputs
	min      int64
	max      int64
	fmin     float64
	fmax     float64
	distinct map[int64]struct{} // COUNT(DISTINCT) values
}

func (s *aggState) add(v int64, isFloat bool) {
	if v == plan.Null {
		return
	}
	first := s.cnt == 0
	s.cnt++
	if isFloat {
		f := value.ToFloat(v)
		s.fsum += f
		if first || f < s.fmin {
			s.fmin = f
		}
		if first || f > s.fmax {
			s.fmax = f
		}
		return
	}
	s.isum += v
	if first || v < s.min {
		s.min = v
	}
	if first || v > s.max {
		s.max = v
	}
}

// merge folds the partial state at r[c:] (as partial rows carry it) into s.
func (s *aggState) merge(fn plan.AggFn, r value.Tuple, c int, isFloat bool) {
	switch fn {
	case plan.CountFn:
		s.cnt += r[c]
	case plan.AvgFn:
		if isFloat {
			s.fsum += value.ToFloat(r[c])
		} else {
			s.isum += r[c]
		}
		s.cnt += r[c+1]
	default: // SUM, MIN, MAX: a partial value combines like one more input
		s.add(r[c], isFloat)
	}
}

// groupAcc accumulates all aggregates for one group key.
type groupAcc struct {
	key    value.Tuple // group column values
	states []aggState
}

// aggPlanInfo pre-binds an aggregation against its input schema.
type aggPlanInfo struct {
	groupIdx []int
	argFns   []func(value.Tuple) int64
	isFloat  []bool
	aggs     []plan.AggExpr
	// stateCol is set when the input rows are partial states to merge:
	// aggregate i's state starts at column stateCol[i].
	stateCol []int
}

func bindAggs(groupBy []string, aggs []plan.AggExpr, sch plan.Schema) (*aggPlanInfo, error) {
	info := &aggPlanInfo{aggs: aggs}
	for _, g := range groupBy {
		i, err := sch.IndexOf(g)
		if err != nil {
			return nil, err
		}
		info.groupIdx = append(info.groupIdx, i)
	}
	for _, a := range aggs {
		if a.Arg == nil {
			info.argFns = append(info.argFns, nil)
			info.isFloat = append(info.isFloat, false)
			continue
		}
		f, err := a.Arg.Bind(sch)
		if err != nil {
			return nil, err
		}
		info.argFns = append(info.argFns, f)
		info.isFloat = append(info.isFloat, a.Arg.Kind(sch) == value.Float)
	}
	return info, nil
}

// bindMerge binds the merge of partial-state rows; sch is the partial
// schema: the group columns, then each aggregate's state column(s).
func bindMerge(groupBy []string, aggs []plan.AggExpr, sch plan.Schema) *aggPlanInfo {
	info := &aggPlanInfo{aggs: aggs}
	for i := range groupBy {
		info.groupIdx = append(info.groupIdx, i)
	}
	col := len(groupBy)
	for _, a := range aggs {
		info.stateCol = append(info.stateCol, col)
		info.isFloat = append(info.isFloat, sch[col].Kind == value.Float)
		col++
		if a.Fn == plan.AvgFn {
			col++ // sum, then count
		}
	}
	return info
}

// accumulate groups the rows of one partition, in row order.
func (info *aggPlanInfo) accumulate(rows []value.Tuple) map[value.Key]*groupAcc {
	groups := make(map[value.Key]*groupAcc)
	for _, r := range rows {
		k := value.MakeKey(r, info.groupIdx)
		g, ok := groups[k]
		if !ok {
			key := make(value.Tuple, len(info.groupIdx))
			for i, j := range info.groupIdx {
				key[i] = r[j]
			}
			g = &groupAcc{key: key, states: make([]aggState, len(info.aggs))}
			groups[k] = g
		}
		for i, a := range info.aggs {
			s := &g.states[i]
			switch {
			case info.stateCol != nil:
				s.merge(a.Fn, r, info.stateCol[i], info.isFloat[i])
			case a.Fn == plan.CountFn && a.Arg == nil:
				s.cnt++ // COUNT(*)
			case a.Fn == plan.CountDistinctFn:
				if v := info.argFns[i](r); v != plan.Null {
					if s.distinct == nil {
						s.distinct = map[int64]struct{}{}
					}
					s.distinct[v] = struct{}{}
				}
			default:
				s.add(info.argFns[i](r), info.isFloat[i])
			}
		}
	}
	return groups
}

// emit renders the accumulated groups as final rows or, when partial, as
// mergeable state rows (AVG carries sum and count; the other functions'
// values combine as they are). identity adds the one row a global
// aggregation yields over empty input (COUNT()=0).
func (info *aggPlanInfo) emit(groups map[value.Key]*groupAcc, partial, identity bool) []value.Tuple {
	if identity && len(info.groupIdx) == 0 && len(groups) == 0 {
		groups[value.Key("")] = &groupAcc{states: make([]aggState, len(info.aggs))}
	}
	width := len(info.groupIdx) + len(info.aggs)
	if partial {
		for _, a := range info.aggs {
			if a.Fn == plan.AvgFn {
				width++
			}
		}
	}
	rows := make([]value.Tuple, 0, len(groups))
	for _, g := range groups {
		row := make(value.Tuple, 0, width)
		row = append(row, g.key...)
		for i, a := range info.aggs {
			s := &g.states[i]
			if partial && a.Fn == plan.AvgFn {
				sum := s.isum
				if info.isFloat[i] {
					sum = value.FromFloat(s.fsum)
				}
				row = append(row, sum, s.cnt)
				continue
			}
			row = append(row, finalValue(a, s, info.isFloat[i]))
		}
		rows = append(rows, row)
	}
	return rows
}

// finalValue renders the final output of one aggregate.
func finalValue(a plan.AggExpr, s *aggState, isFloat bool) int64 {
	if s.cnt == 0 && a.Fn != plan.CountFn && a.Fn != plan.CountDistinctFn {
		return plan.Null
	}
	switch a.Fn {
	case plan.CountFn:
		return s.cnt
	case plan.CountDistinctFn:
		return int64(len(s.distinct))
	case plan.SumFn:
		if isFloat {
			return value.FromFloat(s.fsum)
		}
		return s.isum
	case plan.AvgFn:
		if isFloat {
			return value.FromFloat(s.fsum / float64(s.cnt))
		}
		return value.FromFloat(float64(s.isum) / float64(s.cnt))
	case plan.MinFn:
		if isFloat {
			return value.FromFloat(s.fmin)
		}
		return s.min
	case plan.MaxFn:
		if isFloat {
			return value.FromFloat(s.fmax)
		}
		return s.max
	default:
		return plan.Null
	}
}

func (ex *executor) evalAggregate(n *plan.AggregateNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindAggregate)
	in, err := ex.dispatch(ex, n.Child)
	if err != nil {
		return nil, err
	}
	ex.addInputs(top, in)
	sch := ex.rw.Schemas[n.Child]
	// Over a Gathered input only partition 0 is ever consumed downstream,
	// so the empty-input identity row of a global aggregation must not be
	// fabricated on the other partitions (phantom rows that inflate work
	// and break trace row conservation).
	gathered := ex.gathered(n.Child)
	return forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		info, err := bindAggs(n.GroupBy, n.Aggs, sch)
		if err != nil {
			return nil, 0, err
		}
		rows := info.emit(info.accumulate(in[p]), false, p == 0 || !gathered)
		return rows, len(rows), nil
	})
}

// gathered reports whether n's output lives on the coordinator only.
func (ex *executor) gathered(n plan.Node) bool {
	p := ex.rw.Props[n]
	return p != nil && p.Gathered
}

// evalPartialAgg emits per-partition partial states. A global aggregation
// over an empty partition contributes an identity state, so the final
// merge still sees COUNT=0.
func (ex *executor) evalPartialAgg(n *plan.PartialAggNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindPartialAgg)
	in, err := ex.dispatch(ex, n.Child)
	if err != nil {
		return nil, err
	}
	ex.addInputs(top, in)
	sch := ex.rw.Schemas[n.Child]
	return forEachPart(ex, top, func(p int) ([]value.Tuple, int, error) {
		info, err := bindAggs(n.GroupBy, n.Aggs, sch)
		if err != nil {
			return nil, 0, err
		}
		rows := info.emit(info.accumulate(in[p]), true, true)
		return rows, len(rows), nil
	})
}

// mergePartials combines partial-state rows into final aggregate rows.
// States merge in row order, which every exchange keeps ascending by
// source partition, so Float-kind results do not depend on scheduling.
func mergePartials(n *plan.FinalAggNode, sch plan.Schema, partials []value.Tuple) []value.Tuple {
	info := bindMerge(n.GroupBy, n.Aggs, sch)
	return info.emit(info.accumulate(partials), false, true)
}

// evalFinalAgg merges partial states. Below a Repartition on the group-by
// columns every partition merges the states it received, as one fan-out.
// Below a Gather (the global pair) only the coordinator partition has rows:
// the merge is a single work unit on the coordinator node, under the same
// fault model as the fan-out operators.
//
// lint:ship-boundary coordinator-side merge: consumes every partition's
// partials on the query goroutine; its input exchange already metered them.
func (ex *executor) evalFinalAgg(n *plan.FinalAggNode) ([][]value.Tuple, error) {
	top := ex.tb.Begin(n, trace.KindFinalAgg)
	in, err := ex.dispatch(ex, n.Child)
	if err != nil {
		return nil, err
	}
	sch := ex.rw.Schemas[n.Child]
	merge := func(p int) ([]value.Tuple, int, error) {
		rows := mergePartials(n, sch, in[p])
		return rows, len(rows), nil
	}
	if !ex.gathered(n.Child) {
		ex.addInputs(top, in)
		return forEachPart(ex, top, merge)
	}
	top.AddIn(ex.execDst[0], len(in[0]))
	op := ex.nextOp()
	en := ex.execDst[0]
	start := time.Now()
	rows, work, err := runUnit(ex, ex.ctx, top, op, 0, en, merge)
	top.AddWall(en, time.Since(start))
	if err != nil {
		return nil, err
	}
	out := make([][]value.Tuple, ex.n)
	out[0] = rows
	top.AddOut(en, len(rows))
	top.AddWork(en, work)
	if en != 0 {
		top.AddFailover(en)
	}
	return out, nil
}
