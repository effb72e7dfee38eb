package plan

import "fmt"

// Compiled expression IR for the vectorized engine.
//
// Bind produces row-at-a-time closures; the columnar operators instead want
// an index-resolved tree they can drive with tight per-column loops. Compile
// walks the unexported expression implementations once per (expression,
// schema) pair and returns an exported IR with every column reference
// resolved to its position, so internal/batch can special-case the hot
// shapes (column-vs-literal comparisons, conjunctions) without reflection
// or per-row closure calls. EvalRow mirrors Bind's semantics exactly — the
// differential suites hold the two accountable to each other.

// VExprOp classifies a compiled scalar expression.
type VExprOp uint8

const (
	// VCol reads one column.
	VCol VExprOp = iota
	// VLit yields a constant.
	VLit
	// VFunc gathers Cols into a scratch buffer and applies Fn.
	VFunc
)

// VExpr is one compiled scalar expression node.
type VExpr struct {
	Op  VExprOp
	Col int   // VCol: resolved column index
	Lit int64 // VLit: constant payload
	Fn  func([]int64) int64
	// Cols are VFunc's resolved argument columns, gathered in order.
	Cols []int
}

// EvalRow evaluates the compiled scalar over one tuple, using scratch as
// the VFunc argument buffer (len ≥ len(Cols); nil allocates).
func (e *VExpr) EvalRow(t []int64, scratch []int64) int64 {
	switch e.Op {
	case VCol:
		return t[e.Col]
	case VLit:
		return e.Lit
	default:
		if cap(scratch) < len(e.Cols) {
			scratch = make([]int64, len(e.Cols))
		}
		scratch = scratch[:len(e.Cols)]
		for i, c := range e.Cols {
			scratch[i] = t[c]
		}
		return e.Fn(scratch)
	}
}

// VPredOp classifies a compiled predicate node.
type VPredOp uint8

const (
	// VCmp compares two scalar expressions with Cmp (NULL operands fail).
	VCmp VPredOp = iota
	// VAnd is the conjunction of Kids (true when empty).
	VAnd
	// VOr is the disjunction of Kids (false when empty).
	VOr
	// VNot negates Kids[0].
	VNot
	// VIn tests membership of column Col in Set.
	VIn
)

// VPred is one compiled predicate node.
type VPred struct {
	Op   VPredOp
	Cmp  CmpOp  // VCmp
	L, R *VExpr // VCmp operands
	Kids []*VPred
	Col  int // VIn: resolved column index
	Set  map[int64]bool
}

// EvalRow evaluates the compiled predicate over one tuple with the same
// semantics as the Bind closure (comparisons on NULL are false; the
// comparison itself runs on the encoded int64 payloads, exactly like the
// row engine).
func (p *VPred) EvalRow(t []int64, scratch []int64) bool {
	switch p.Op {
	case VCmp:
		a, b := p.L.EvalRow(t, scratch), p.R.EvalRow(t, scratch)
		if a == Null || b == Null {
			return false
		}
		return p.Cmp.apply(a, b)
	case VAnd:
		for _, k := range p.Kids {
			if !k.EvalRow(t, scratch) {
				return false
			}
		}
		return true
	case VOr:
		for _, k := range p.Kids {
			if k.EvalRow(t, scratch) {
				return true
			}
		}
		return false
	case VNot:
		return !p.Kids[0].EvalRow(t, scratch)
	default: // VIn
		return p.Set[t[p.Col]]
	}
}

// appendCols appends the positions of the columns e reads.
func (e *VExpr) appendCols(dst []int) []int {
	switch e.Op {
	case VCol:
		return append(dst, e.Col)
	case VFunc:
		return append(dst, e.Cols...)
	}
	return dst
}

// AppendCols appends the positions of the columns p reads, in tree order,
// repeats included: the cells EvalRow looks at.
func (p *VPred) AppendCols(dst []int) []int {
	switch p.Op {
	case VCmp:
		return p.R.appendCols(p.L.appendCols(dst))
	case VIn:
		return append(dst, p.Col)
	}
	for _, k := range p.Kids {
		dst = k.AppendCols(dst)
	}
	return dst
}

// MaxFuncArgs reports the widest VFunc argument list in the tree, sizing a
// shared scratch buffer for EvalRow-driven loops.
func (e *VExpr) MaxFuncArgs() int {
	if e == nil {
		return 0
	}
	if e.Op == VFunc {
		return len(e.Cols)
	}
	return 0
}

// MaxFuncArgs reports the widest VFunc argument list anywhere in the
// predicate tree.
func (p *VPred) MaxFuncArgs() int {
	if p == nil {
		return 0
	}
	n := 0
	if p.L != nil && p.L.MaxFuncArgs() > n {
		n = p.L.MaxFuncArgs()
	}
	if p.R != nil && p.R.MaxFuncArgs() > n {
		n = p.R.MaxFuncArgs()
	}
	for _, k := range p.Kids {
		if m := k.MaxFuncArgs(); m > n {
			n = m
		}
	}
	return n
}

// CompileExpr resolves a scalar expression against a schema into the
// vectorized IR.
func CompileExpr(e ValExpr, s Schema) (*VExpr, error) {
	switch e := e.(type) {
	case colExpr:
		i := s.Index(e.name)
		if i < 0 {
			return nil, fmt.Errorf("plan: unknown column %q (have %v)", e.name, s.Names())
		}
		return &VExpr{Op: VCol, Col: i}, nil
	case litExpr:
		return &VExpr{Op: VLit, Lit: e.v}, nil
	case funcExpr:
		idx := make([]int, len(e.cols))
		for i, c := range e.cols {
			j := s.Index(c)
			if j < 0 {
				return nil, fmt.Errorf("plan: func %s: unknown column %q", e.name, c)
			}
			idx[i] = j
		}
		return &VExpr{Op: VFunc, Fn: e.fn, Cols: idx}, nil
	default:
		return nil, fmt.Errorf("plan: cannot compile scalar expression %T", e)
	}
}

// CompilePred resolves a predicate against a schema into the vectorized IR.
func CompilePred(p BoolExpr, s Schema) (*VPred, error) {
	switch p := p.(type) {
	case cmpExpr:
		l, err := CompileExpr(p.l, s)
		if err != nil {
			return nil, err
		}
		r, err := CompileExpr(p.r, s)
		if err != nil {
			return nil, err
		}
		return &VPred{Op: VCmp, Cmp: p.op, L: l, R: r}, nil
	case andExpr:
		kids, err := compileKids(p.xs, s)
		if err != nil {
			return nil, err
		}
		return &VPred{Op: VAnd, Kids: kids}, nil
	case orExpr:
		kids, err := compileKids(p.xs, s)
		if err != nil {
			return nil, err
		}
		return &VPred{Op: VOr, Kids: kids}, nil
	case notExpr:
		k, err := CompilePred(p.x, s)
		if err != nil {
			return nil, err
		}
		return &VPred{Op: VNot, Kids: []*VPred{k}}, nil
	case inExpr:
		i := s.Index(p.col)
		if i < 0 {
			return nil, fmt.Errorf("plan: unknown column %q in IN", p.col)
		}
		return &VPred{Op: VIn, Col: i, Set: p.set}, nil
	default:
		return nil, fmt.Errorf("plan: cannot compile predicate %T", p)
	}
}

func compileKids(xs []BoolExpr, s Schema) ([]*VPred, error) {
	kids := make([]*VPred, len(xs))
	for i, x := range xs {
		k, err := CompilePred(x, s)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	return kids, nil
}
