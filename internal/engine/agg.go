package engine

import (
	"fmt"
	"time"

	"pref/internal/batch"
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

// merge folds one partial state into s: v is the state's value column and,
// for AVG — whose state is (sum, count) — cnt its count column.
func (s *aggState) merge(fn plan.AggFn, v, cnt int64, isFloat bool) {
	switch fn {
	case plan.CountFn:
		s.cnt += v
	case plan.AvgFn:
		if isFloat {
			s.fsum += value.ToFloat(v)
		} else {
			s.isum += v
		}
		s.cnt += cnt
	default: // SUM, MIN, MAX: a partial value combines like one more input
		s.add(v, isFloat)
	}
}

// groupAcc accumulates all aggregates for one group key.
type groupAcc struct {
	key    value.Tuple // group column values
	states []aggState
}

// aggPlanInfo is an aggregation bound against its input schema, once per
// operator: the work units share it read-only and own only their groups.
type aggPlanInfo struct {
	groupIdx []int
	aggs     []plan.AggExpr
	isFloat  []bool
	// argCol is aggregate i's input column when its argument is a bare
	// column reference (or, merging, its first state column). A computed
	// argument has argCol[i] < 0 and is column -argCol[i]-1 of computed,
	// evaluated per batch; COUNT(*) reads nothing.
	argCol   []int
	computed []*plan.VExpr
	// merging is set when the input rows are partial states: the group
	// columns, then each aggregate's state column(s).
	merging bool
}

func bindAggs(groupBy []string, aggs []plan.AggExpr, sch plan.Schema) (*aggPlanInfo, error) {
	groupIdx, err := sch.Indexes(groupBy)
	if err != nil {
		return nil, err
	}
	info := &aggPlanInfo{groupIdx: groupIdx, aggs: aggs,
		isFloat: make([]bool, len(aggs)), argCol: make([]int, len(aggs))}
	for i, a := range aggs {
		if a.Arg == nil {
			continue
		}
		e, err := plan.CompileExpr(a.Arg, sch)
		if err != nil {
			return nil, err
		}
		info.isFloat[i] = a.Arg.Kind(sch) == value.Float
		if e.Op == plan.VCol {
			info.argCol[i] = e.Col
			continue
		}
		info.computed = append(info.computed, e)
		info.argCol[i] = -len(info.computed)
	}
	return info, nil
}

// bindMerge binds the merge of partial-state rows against sch, the schema
// that carries them, by name: the states of a partial aggregate that ran
// below lookup joins arrive among the joins' columns. An AVG's count state
// follows its sum, as the partial lays them out and every operator between
// keeps them. A group-by or state column sch lacks is an error.
func bindMerge(groupBy []string, aggs []plan.AggExpr, sch plan.Schema) (*aggPlanInfo, error) {
	groupIdx, err := sch.Indexes(groupBy)
	if err != nil {
		return nil, err
	}
	info := &aggPlanInfo{groupIdx: groupIdx, aggs: aggs, merging: true}
	for _, a := range aggs {
		col, err := sch.IndexOf(plan.StateCol(a))
		if err != nil {
			return nil, err
		}
		if a.Fn == plan.AvgFn && (col+1 >= len(sch) || sch[col+1].Name != a.As+"$cnt") {
			return nil, fmt.Errorf("engine: AVG %s's count state does not follow its sum in %v", a.As, sch.Names())
		}
		info.argCol = append(info.argCol, col)
		info.isFloat = append(info.isFloat, sch[col].Kind == value.Float)
	}
	return info, nil
}

// accumulate groups the rows of one partition, in row order; the groups come
// back in first-seen order. Each batch first resolves its rows to group ids
// (an allocation-free probe; only a new group interns its key and copies its
// group values), then feeds one aggregate at a time from the column it
// reads, so no row is gathered.
func (info *aggPlanInfo) accumulate(bs []*batch.Batch) []groupAcc {
	var groups []groupAcc
	index := make(map[value.Key]int32)
	kb := batch.NewKeyBuf(len(info.groupIdx))
	most := 0
	for _, b := range bs {
		most = max(most, b.Len())
	}
	gids := make([]int32, 0, most) // one batch's group ids, sized once
	for _, b := range bs {
		n := b.Len()
		gids = gids[:0]
		for i := 0; i < n; i++ {
			kb.Encode(b, i, info.groupIdx)
			g, ok := batch.Probe(kb, index)
			if !ok {
				g = int32(len(groups))
				index[kb.Key()] = g
				key := make(value.Tuple, len(info.groupIdx))
				for k, c := range info.groupIdx {
					key[k] = b.At(i, c)
				}
				groups = append(groups, groupAcc{key: key, states: make([]aggState, len(info.aggs))})
			}
			gids = append(gids, g)
		}
		var computed *batch.Batch
		if len(info.computed) > 0 {
			computed = batch.Project(b, info.computed)
		}
		for j, a := range info.aggs {
			// in is the batch aggregate j reads column c of: b itself, or the
			// dense batch of computed arguments.
			in, c, isFloat := b, info.argCol[j], info.isFloat[j]
			if c < 0 {
				in, c = computed, -c-1
			}
			for i, g := range gids {
				s := &groups[g].states[j]
				switch {
				case info.merging && a.Fn == plan.AvgFn:
					s.merge(a.Fn, in.At(i, c), in.At(i, c+1), isFloat)
				case info.merging:
					s.merge(a.Fn, in.At(i, c), 0, isFloat)
				case a.Fn == plan.CountFn && a.Arg == nil:
					s.cnt++ // COUNT(*)
				case a.Fn == plan.CountDistinctFn:
					if v := in.At(i, c); v != plan.Null {
						if s.distinct == nil {
							s.distinct = map[int64]struct{}{}
						}
						s.distinct[v] = struct{}{}
					}
				default:
					s.add(in.At(i, c), isFloat)
				}
			}
		}
		computed.Release() // scratch: it never leaves this function
	}
	return groups
}

// emit renders the accumulated groups as final rows or, when partial, as
// mergeable state rows (AVG carries sum and count; the other functions'
// values combine as they are). identity adds the one row a global
// aggregation yields over empty input (COUNT()=0).
func (info *aggPlanInfo) emit(groups []groupAcc, partial, identity bool) []*batch.Batch {
	if identity && len(info.groupIdx) == 0 && len(groups) == 0 {
		groups = []groupAcc{{states: make([]aggState, len(info.aggs))}}
	}
	width := len(info.groupIdx) + len(info.aggs)
	if partial {
		for _, a := range info.aggs {
			if a.Fn == plan.AvgFn {
				width++
			}
		}
	}
	w := batch.NewWriter(width)
	row := make(value.Tuple, 0, width)
	for _, g := range groups {
		row = append(row[:0], g.key...)
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
		w.AppendTuple(row)
	}
	return w.Finish()
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

// evalAggVec runs the single-phase aggregate and, partial set, the partial
// phase of a pair, whose output is mergeable states: bind once, then one unit
// per partition groups its input in place into fresh batches.
func (ex *executor) evalAggVec(f *frame, n plan.Node, kind trace.Kind, child plan.Node, groupBy []string, aggs []plan.AggExpr, partial bool) (vparts, outKind, error) {
	top := ex.tb.Begin(n, kind)
	in, err := f.input(child)
	if err != nil {
		return nil, fresh, err
	}
	ex.addInputsVec(top, in)
	info, err := bindAggs(groupBy, aggs, ex.rw.Schemas[child])
	if err != nil {
		return nil, fresh, err
	}
	// A global aggregation over an empty partition yields the identity row,
	// so a final merge still sees COUNT=0 — except that over a Gathered input
	// only partition 0 is ever consumed downstream, and the others must not
	// fabricate one (phantom rows that inflate work and break trace row
	// conservation).
	everywhere := partial || !ex.gathered(child)
	out, err := forEachPart(ex, top, func(p int) ([]*batch.Batch, int, error) {
		out := info.emit(info.accumulate(in[p]), partial, everywhere || p == 0)
		return out, batch.Rows(out), nil
	})
	return out, fresh, err
}

// gathered reports whether n's output lives on the coordinator only.
func (ex *executor) gathered(n plan.Node) bool {
	p := ex.rw.Props[n]
	return p != nil && p.Gathered
}

// evalFinalAggVec merges partial states, in row order — which every exchange
// keeps ascending by source partition, so Float-kind results do not depend
// on scheduling. Below a Repartition on the group-by columns every partition
// merges the states it received, as one fan-out. Below a Gather (the global
// pair) only the coordinator partition has rows: the merge is a single work
// unit on the coordinator node, under the same fault model as the fan-out
// operators.
func (ex *executor) evalFinalAggVec(f *frame, n *plan.FinalAggNode) (vparts, outKind, error) {
	top := ex.tb.Begin(n, trace.KindFinalAgg)
	in, err := f.input(n.Child)
	if err != nil {
		return nil, fresh, err
	}
	info, err := bindMerge(n.GroupBy, n.Aggs, ex.rw.Schemas[n.Child])
	if err != nil {
		return nil, fresh, err
	}
	merge := func(p int) ([]*batch.Batch, int, error) {
		out := info.emit(info.accumulate(in[p]), false, true)
		return out, batch.Rows(out), nil
	}
	if !ex.gathered(n.Child) {
		ex.addInputsVec(top, in)
		out, err := forEachPart(ex, top, merge)
		return out, fresh, err
	}
	top.AddIn(ex.execDst[0], batch.Rows(in[0]))
	op := ex.nextOp()
	en := ex.execDst[0]
	start := time.Now()
	rows, work, err := runUnit(ex, ex.ctx, top, op, 0, en, merge)
	top.AddWall(en, time.Since(start))
	if err != nil {
		return nil, fresh, err
	}
	out := make(vparts, ex.n)
	out[0] = rows
	top.AddOut(en, batch.Rows(rows))
	top.AddWork(en, work)
	if en != 0 {
		top.AddFailover(en)
	}
	return out, fresh, nil
}
