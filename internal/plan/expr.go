package plan

import (
	"fmt"
	"math"
	"strings"
	"time"

	"pref/internal/value"
)

func timeMonth(m int) time.Month { return time.Month(m) }

// ValExpr is a scalar expression over a row, evaluated after binding to a
// schema. Values use the engine's int64 encoding.
type ValExpr interface {
	// Bind resolves column references against a schema, returning an
	// evaluator closure. Binding errors indicate plan-construction bugs.
	Bind(s Schema) (func(value.Tuple) int64, error)
	// Kind reports the result kind under the given schema.
	Kind(s Schema) value.Kind
	// AppendCols appends the name of every column the expression reads to
	// dst (repeats included) — what the live-column pass and the checker
	// need to know about an expression without binding it.
	AppendCols(dst []string) []string
	String() string
}

// BoolExpr is a predicate over a row.
type BoolExpr interface {
	Bind(s Schema) (func(value.Tuple) bool, error)
	// AppendCols is ValExpr.AppendCols for predicates, recursively.
	AppendCols(dst []string) []string
	String() string
}

// ---- scalar expressions ----

type colExpr struct{ name string }

// Col references a column by its alias-qualified name.
func Col(name string) ValExpr { return colExpr{name} }

func (c colExpr) Bind(s Schema) (func(value.Tuple) int64, error) {
	i := s.Index(c.name)
	if i < 0 {
		return nil, fmt.Errorf("plan: unknown column %q (have %v)", c.name, s.Names())
	}
	return func(t value.Tuple) int64 { return t[i] }, nil
}

func (c colExpr) Kind(s Schema) value.Kind {
	if i := s.Index(c.name); i >= 0 {
		return s[i].Kind
	}
	return value.Int
}

func (c colExpr) AppendCols(dst []string) []string { return append(dst, c.name) }

func (c colExpr) String() string { return c.name }

// ColName reports whether e is a bare column reference, and to which column.
func ColName(e ValExpr) (string, bool) {
	c, ok := e.(colExpr)
	return c.name, ok
}

type litExpr struct {
	v    int64
	kind value.Kind
}

// Lit is an integer literal.
func Lit(v int64) ValExpr { return litExpr{v, value.Int} }

// MoneyLit is a money literal in dollars.
func MoneyLit(dollars float64) ValExpr {
	return litExpr{value.FromMoney(dollars), value.Money}
}

// DateLit is a date literal (year, month, day).
func DateLit(y, m, d int) ValExpr {
	return litExpr{value.FromDate(y, timeMonth(m), d), value.Date}
}

func (l litExpr) Bind(Schema) (func(value.Tuple) int64, error) {
	return func(value.Tuple) int64 { return l.v }, nil
}
func (l litExpr) Kind(Schema) value.Kind           { return l.kind }
func (l litExpr) AppendCols(dst []string) []string { return dst }
func (l litExpr) String() string                   { return fmt.Sprintf("%d", l.v) }

// Func is a computed scalar over named input columns; fn receives the
// column values in the order of cols. Used for derived measures such as
// extendedprice·(1−discount).
type funcExpr struct {
	cols []string
	kind value.Kind
	name string
	fn   func([]int64) int64
	// monotone marks a function of one column that never decreases as its
	// argument grows: the estimator maps the argument's range through it.
	monotone bool
}

// F builds a computed scalar expression.
func F(name string, kind value.Kind, cols []string, fn func([]int64) int64) ValExpr {
	return funcExpr{cols: cols, kind: kind, name: name, fn: fn}
}

// Monotone builds a computed scalar of one column whose fn never decreases
// as its argument grows (a date's year, say). It evaluates as F does; the
// estimator reads its values as [fn(lo), fn(hi)] of the argument's range,
// with no more distinct values than that range holds or the argument has.
func Monotone(name string, kind value.Kind, col string, fn func(int64) int64) ValExpr {
	return funcExpr{cols: []string{col}, kind: kind, name: name, monotone: true,
		fn: func(v []int64) int64 { return fn(v[0]) }}
}

func (f funcExpr) Bind(s Schema) (func(value.Tuple) int64, error) {
	idx := make([]int, len(f.cols))
	for i, c := range f.cols {
		j := s.Index(c)
		if j < 0 {
			return nil, fmt.Errorf("plan: func %s: unknown column %q", f.name, c)
		}
		idx[i] = j
	}
	buf := make([]int64, len(idx))
	return func(t value.Tuple) int64 {
		for i, j := range idx {
			buf[i] = t[j]
		}
		return f.fn(buf)
	}, nil
}
func (f funcExpr) Kind(Schema) value.Kind           { return f.kind }
func (f funcExpr) AppendCols(dst []string) []string { return append(dst, f.cols...) }
func (f funcExpr) String() string                   { return f.name + "(" + strings.Join(f.cols, ",") + ")" }

// ---- predicates ----

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

func (o CmpOp) apply(a, b int64) bool {
	switch o {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	default:
		return false
	}
}

type cmpExpr struct {
	l, r ValExpr
	op   CmpOp
}

// Cmp compares two scalar expressions.
func Cmp(l ValExpr, op CmpOp, r ValExpr) BoolExpr { return cmpExpr{l, r, op} }

// Eq is Cmp(l, EQ, r); analogous helpers exist for the other operators.
func Eq(l, r ValExpr) BoolExpr { return Cmp(l, EQ, r) }

// Lt is the < comparison.
func Lt(l, r ValExpr) BoolExpr { return Cmp(l, LT, r) }

// Le is the <= comparison.
func Le(l, r ValExpr) BoolExpr { return Cmp(l, LE, r) }

// Gt is the > comparison.
func Gt(l, r ValExpr) BoolExpr { return Cmp(l, GT, r) }

// Ge is the >= comparison.
func Ge(l, r ValExpr) BoolExpr { return Cmp(l, GE, r) }

// Ne is the <> comparison.
func Ne(l, r ValExpr) BoolExpr { return Cmp(l, NE, r) }

func (c cmpExpr) Bind(s Schema) (func(value.Tuple) bool, error) {
	lf, err := c.l.Bind(s)
	if err != nil {
		return nil, err
	}
	rf, err := c.r.Bind(s)
	if err != nil {
		return nil, err
	}
	op := c.op
	return func(t value.Tuple) bool {
		a, b := lf(t), rf(t)
		if a == Null || b == Null {
			return false
		}
		return op.apply(a, b)
	}, nil
}
func (c cmpExpr) AppendCols(dst []string) []string {
	return c.r.AppendCols(c.l.AppendCols(dst))
}
func (c cmpExpr) String() string { return c.l.String() + c.op.String() + c.r.String() }

type andExpr struct{ xs []BoolExpr }

// And is the conjunction of predicates (true when empty).
func And(xs ...BoolExpr) BoolExpr { return andExpr{xs} }

func (a andExpr) Bind(s Schema) (func(value.Tuple) bool, error) {
	fs := make([]func(value.Tuple) bool, len(a.xs))
	for i, x := range a.xs {
		f, err := x.Bind(s)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return func(t value.Tuple) bool {
		for _, f := range fs {
			if !f(t) {
				return false
			}
		}
		return true
	}, nil
}
func (a andExpr) AppendCols(dst []string) []string { return appendAllCols(dst, a.xs) }
func (a andExpr) String() string                   { return joinExprs(a.xs, " AND ") }

type orExpr struct{ xs []BoolExpr }

// Or is the disjunction of predicates (false when empty).
func Or(xs ...BoolExpr) BoolExpr { return orExpr{xs} }

func (o orExpr) Bind(s Schema) (func(value.Tuple) bool, error) {
	fs := make([]func(value.Tuple) bool, len(o.xs))
	for i, x := range o.xs {
		f, err := x.Bind(s)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return func(t value.Tuple) bool {
		for _, f := range fs {
			if f(t) {
				return true
			}
		}
		return false
	}, nil
}
func (o orExpr) AppendCols(dst []string) []string { return appendAllCols(dst, o.xs) }
func (o orExpr) String() string                   { return joinExprs(o.xs, " OR ") }

type notExpr struct{ x BoolExpr }

// Not negates a predicate.
func Not(x BoolExpr) BoolExpr { return notExpr{x} }

func (n notExpr) Bind(s Schema) (func(value.Tuple) bool, error) {
	f, err := n.x.Bind(s)
	if err != nil {
		return nil, err
	}
	return func(t value.Tuple) bool { return !f(t) }, nil
}
func (n notExpr) AppendCols(dst []string) []string { return n.x.AppendCols(dst) }
func (n notExpr) String() string                   { return "NOT(" + n.x.String() + ")" }

// In tests membership of a column in a literal set.
func In(col string, vals ...int64) BoolExpr {
	set := make(map[int64]bool, len(vals))
	for _, v := range vals {
		set[v] = true
	}
	return inExpr{col, set, vals}
}

type inExpr struct {
	col  string
	set  map[int64]bool
	vals []int64
}

func (e inExpr) Bind(s Schema) (func(value.Tuple) bool, error) {
	i := s.Index(e.col)
	if i < 0 {
		return nil, fmt.Errorf("plan: unknown column %q in IN", e.col)
	}
	return func(t value.Tuple) bool { return e.set[t[i]] }, nil
}
func (e inExpr) AppendCols(dst []string) []string { return append(dst, e.col) }
func (e inExpr) String() string                   { return fmt.Sprintf("%s IN %v", e.col, e.vals) }

// Conjuncts returns the top-level conjuncts of p, nested ANDs flattened, in
// order.
func Conjuncts(p BoolExpr) []BoolExpr { return conjuncts(p) }

// conjuncts flattens the top-level conjunction of a predicate.
func conjuncts(p BoolExpr) []BoolExpr {
	a, ok := p.(andExpr)
	if !ok {
		return []BoolExpr{p}
	}
	var out []BoolExpr
	for _, x := range a.xs {
		out = append(out, conjuncts(x)...)
	}
	return out
}

// EqualityBindings extracts column = constant facts from the top-level
// conjunction of a predicate (Eq comparisons and single-value INs). Used
// for partition pruning.
func EqualityBindings(p BoolExpr) map[string]int64 {
	out := map[string]int64{}
	for _, x := range conjuncts(p) {
		switch e := x.(type) {
		case cmpExpr:
			if col, op, v, ok := colLit(e); ok && op == EQ {
				out[col] = v
			}
		case inExpr:
			if len(e.vals) == 1 {
				out[e.col] = e.vals[0]
			}
		}
	}
	return out
}

// colLit reads a comparison of a column with a literal as the column, the
// operator with the column on its left, and the literal.
func colLit(x BoolExpr) (col string, op CmpOp, lit int64, ok bool) {
	c, isCmp := x.(cmpExpr)
	if !isCmp {
		return "", 0, 0, false
	}
	if name, isCol := ColName(c.l); isCol {
		if l, isLit := c.r.(litExpr); isLit {
			return name, c.op, l.v, true
		}
	}
	if name, isCol := ColName(c.r); isCol {
		if l, isLit := c.l.(litExpr); isLit {
			return name, mirrored[c.op], l.v, true
		}
	}
	return "", 0, 0, false
}

// LiteralRange intersects the values col may take under the top-level
// conjuncts of pred that compare it with a literal (=, <, <=, >, >=) into
// the closed range [lo, hi], empty when lo > hi; ok is false when no such
// conjunct names col. It also returns the other top-level conjuncts, in
// order. When ok, a row satisfies pred exactly when its col is not NULL and
// lies in the range and the row satisfies every conjunct of rest; one walk
// decides both, so a reader that fetched exactly the range evaluates rest
// alone.
func LiteralRange(pred BoolExpr, col string) (lo, hi int64, rest []BoolExpr, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	for _, x := range conjuncts(pred) {
		name, op, v, isLit := colLit(x)
		if !isLit || name != col || op == NE {
			rest = append(rest, x)
			continue
		}
		ok = true
		switch {
		case v == Null, op == GT && v == math.MaxInt64:
			lo, hi = 1, 0 // no row satisfies it
		case op == EQ:
			lo, hi = max(lo, v), min(hi, v)
		case op == LT:
			hi = min(hi, v-1)
		case op == LE:
			hi = min(hi, v)
		case op == GT:
			lo = max(lo, v+1)
		default: // GE
			lo = max(lo, v)
		}
	}
	return lo, hi, rest, ok
}

// ColumnEqualities lists the column = column comparisons of the top-level
// conjunction of a predicate (nil has none), as (left, right) pairs in
// predicate order. Used to read join graphs off plans.
func ColumnEqualities(p BoolExpr) [][2]string {
	var out [][2]string
	for _, x := range conjuncts(p) {
		e, _ := x.(cmpExpr)
		l, lok := e.l.(colExpr)
		r, rok := e.r.(colExpr)
		if e.op == EQ && lok && rok {
			out = append(out, [2]string{l.name, r.name})
		}
	}
	return out
}

func appendAllCols(dst []string, xs []BoolExpr) []string {
	for _, x := range xs {
		dst = x.AppendCols(dst)
	}
	return dst
}

func joinExprs(xs []BoolExpr, sep string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = "(" + x.String() + ")"
	}
	return strings.Join(parts, sep)
}

// renameCols returns p with every column m names read as its image in m.
func renameCols(p BoolExpr, m map[string]string) BoolExpr {
	switch e := p.(type) {
	case cmpExpr:
		return cmpExpr{renameVal(e.l, m), renameVal(e.r, m), e.op}
	case andExpr:
		return andExpr{renameAll(e.xs, m)}
	case orExpr:
		return orExpr{renameAll(e.xs, m)}
	case notExpr:
		return notExpr{renameCols(e.x, m)}
	case inExpr:
		if to, ok := m[e.col]; ok {
			e.col = to
		}
		return e
	}
	return p
}

func renameAll(xs []BoolExpr, m map[string]string) []BoolExpr {
	out := make([]BoolExpr, len(xs))
	for i, x := range xs {
		out[i] = renameCols(x, m)
	}
	return out
}

func renameVal(v ValExpr, m map[string]string) ValExpr {
	switch e := v.(type) {
	case colExpr:
		if to, ok := m[e.name]; ok {
			return colExpr{to}
		}
	case funcExpr:
		cols := make([]string, len(e.cols))
		for i, c := range e.cols {
			cols[i] = c
			if to, ok := m[c]; ok {
				cols[i] = to
			}
		}
		e.cols = cols
		return e
	}
	return v
}
