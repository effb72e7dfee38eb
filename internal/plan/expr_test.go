package plan

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pref/internal/value"
)

func exprSchema() Schema {
	return Schema{
		{Name: "t.a", Kind: value.Int},
		{Name: "t.b", Kind: value.Money},
		{Name: "t.d", Kind: value.Date},
		{Name: "t.f", Kind: value.Float},
	}
}

func evalBool(t *testing.T, e BoolExpr, row value.Tuple) bool {
	t.Helper()
	f, err := e.Bind(exprSchema())
	if err != nil {
		t.Fatal(err)
	}
	return f(row)
}

func evalVal(t *testing.T, e ValExpr, row value.Tuple) int64 {
	t.Helper()
	f, err := e.Bind(exprSchema())
	if err != nil {
		t.Fatal(err)
	}
	return f(row)
}

func TestComparisons(t *testing.T) {
	row := value.Tuple{5, value.FromMoney(12.34), value.FromDate(1995, 6, 1), value.FromFloat(2.5)}
	cases := []struct {
		e    BoolExpr
		want bool
	}{
		{Eq(Col("t.a"), Lit(5)), true},
		{Eq(Col("t.a"), Lit(6)), false},
		{Ne(Col("t.a"), Lit(6)), true},
		{Lt(Col("t.a"), Lit(6)), true},
		{Le(Col("t.a"), Lit(5)), true},
		{Gt(Col("t.a"), Lit(5)), false},
		{Ge(Col("t.a"), Lit(5)), true},
		{Eq(Col("t.b"), MoneyLit(12.34)), true},
		{Lt(Col("t.d"), DateLit(1996, 1, 1)), true},
		{Ge(Col("t.d"), DateLit(1995, 6, 1)), true},
		{And(Gt(Col("t.a"), Lit(1)), Lt(Col("t.a"), Lit(9))), true},
		{And(Gt(Col("t.a"), Lit(1)), Lt(Col("t.a"), Lit(3))), false},
		{Or(Eq(Col("t.a"), Lit(1)), Eq(Col("t.a"), Lit(5))), true},
		{Or(Eq(Col("t.a"), Lit(1)), Eq(Col("t.a"), Lit(2))), false},
		{Not(Eq(Col("t.a"), Lit(5))), false},
		{In("t.a", 1, 5, 9), true},
		{In("t.a", 1, 2, 9), false},
		{And(), true},
		{Or(), false},
	}
	for i, c := range cases {
		if got := evalBool(t, c.e, row); got != c.want {
			t.Errorf("case %d (%s) = %v, want %v", i, c.e.String(), got, c.want)
		}
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	row := value.Tuple{Null, 0, 0, 0}
	for _, e := range []BoolExpr{
		Eq(Col("t.a"), Lit(0)),
		Ne(Col("t.a"), Lit(0)),
		Lt(Col("t.a"), Lit(0)),
		Gt(Col("t.a"), Lit(0)),
	} {
		if evalBool(t, e, row) {
			t.Errorf("%s on NULL must be false", e.String())
		}
	}
}

func TestFuncExpr(t *testing.T) {
	row := value.Tuple{7, value.FromMoney(10), 0, 0}
	double := F("double", value.Int, []string{"t.a"}, func(v []int64) int64 { return 2 * v[0] })
	if got := evalVal(t, double, row); got != 14 {
		t.Fatalf("double = %d", got)
	}
	mixed := F("mix", value.Money, []string{"t.a", "t.b"},
		func(v []int64) int64 { return v[0] * v[1] })
	if got := evalVal(t, mixed, row); got != 7*1000 {
		t.Fatalf("mix = %d", got)
	}
	if mixed.Kind(exprSchema()) != value.Money {
		t.Fatal("func kind")
	}
	if _, err := F("bad", value.Int, []string{"t.zzz"}, nil).Bind(exprSchema()); err == nil {
		t.Fatal("unknown func column must error")
	}
}

func TestBindErrors(t *testing.T) {
	if _, err := Col("t.zzz").Bind(exprSchema()); err != nil {
		// expected
	} else {
		t.Fatal("unknown column must error")
	}
	for _, e := range []BoolExpr{
		Eq(Col("t.zzz"), Lit(1)),
		Eq(Lit(1), Col("t.zzz")),
		And(Eq(Col("t.zzz"), Lit(1))),
		Or(Eq(Col("t.zzz"), Lit(1))),
		Not(Eq(Col("t.zzz"), Lit(1))),
		In("t.zzz", 1),
	} {
		if _, err := e.Bind(exprSchema()); err == nil {
			t.Errorf("%s should fail to bind", e.String())
		}
	}
}

func TestExprStrings(t *testing.T) {
	e := And(Eq(Col("t.a"), Lit(5)), Not(In("t.b", 1, 2)))
	s := e.String()
	for _, want := range []string{"t.a=5", "NOT", "IN", "AND"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if Col("t.a").Kind(exprSchema()) != value.Int {
		t.Fatal("col kind")
	}
	if Col("nope").Kind(exprSchema()) != value.Int {
		t.Fatal("unknown col kind defaults to Int")
	}
	if MoneyLit(1).Kind(exprSchema()) != value.Money {
		t.Fatal("money lit kind")
	}
	for op, want := range map[CmpOp]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="} {
		if op.String() != want {
			t.Errorf("op %d string = %q", op, op.String())
		}
	}
}

func TestEqualityBindingsExtraction(t *testing.T) {
	pred := And(
		Eq(Col("t.a"), Lit(7)),
		Eq(Lit(3), Col("t.b")),
		In("t.d", 9),
		Gt(Col("t.f"), Lit(1)),     // not an equality
		Or(Eq(Col("t.a"), Lit(1))), // under OR: ignored
		Ne(Col("t.a"), Lit(2)),     // not EQ
		Eq(Col("t.a"), Col("t.b")), // col=col: ignored
	)
	b := EqualityBindings(pred)
	if len(b) != 3 || b["t.a"] != 7 || b["t.b"] != 3 || b["t.d"] != 9 {
		t.Fatalf("bindings = %v", b)
	}
	if len(EqualityBindings(Or())) != 0 {
		t.Fatal("empty OR yields nothing")
	}
}

func TestLiteralRangeExtraction(t *testing.T) {
	for _, c := range []struct {
		pred   BoolExpr
		lo, hi int64
		rest   string // the conjuncts left over, joined by " & "
		ok     bool
	}{
		{And(Ge(Col("t.d"), Lit(10)), Lt(Col("t.d"), Lit(20)), Gt(Col("t.a"), Lit(99))), 10, 19, "t.a>99", true},
		{And(Gt(Lit(20), Col("t.d")), And(Le(Lit(10), Col("t.d")))), 10, 19, "", true}, // mirrored, nested AND
		{Eq(Col("t.d"), Lit(5)), 5, 5, "", true},
		{And(Gt(Col("t.d"), Lit(30)), Lt(Col("t.d"), Lit(20))), 31, 19, "", true}, // empty
		{Lt(Col("t.d"), Lit(math.MinInt64)), 1, 0, "", true},                      // nothing below
		{Gt(Col("t.d"), Lit(math.MaxInt64)), 1, 0, "", true},                      // nothing above
		{And(Gt(Col("t.d"), Lit(math.MaxInt64)), Le(Col("t.d"), Lit(9))), 1, 0, "", true},
		{And(Ge(Col("t.d"), Lit(Null)), Le(Col("t.d"), Lit(9))), 1, 0, "", true}, // NULL literal: false on every row
		{Le(Col("t.d"), Lit(7)), math.MinInt64, 7, "", true},
		{And(Le(Col("t.d"), Lit(7)), Ne(Col("t.d"), Lit(3))), math.MinInt64, 7, "t.d<>3", true},          // NE stays
		{Or(Ge(Col("t.d"), Lit(10))), 0, 0, "(t.d>=10)", false},                                          // under OR: ignored
		{And(Ne(Col("t.d"), Lit(3)), Lt(Col("t.d"), Col("t.a"))), 0, 0, "t.d<>3 & t.d<t.a", false},       // NE, col<col
		{And(Ge(Col("t.a"), Lit(10)), Not(Lt(Col("t.d"), Lit(3)))), 0, 0, "t.a>=10 & NOT(t.d<3)", false}, // another column, NOT
	} {
		lo, hi, rest, ok := LiteralRange(c.pred, "t.d")
		var legs []string
		for _, x := range rest {
			legs = append(legs, x.String())
		}
		if got := strings.Join(legs, " & "); ok != c.ok || got != c.rest || ok && (lo != c.lo || hi != c.hi) {
			t.Errorf("%s: range [%d, %d] rest %q ok=%v, want [%d, %d] rest %q ok=%v", c.pred, lo, hi, got, ok, c.lo, c.hi, c.rest, c.ok)
		}
	}
}

func TestColumnEqualitiesExtraction(t *testing.T) {
	pred := And(
		Eq(Col("t.a"), Lit(7)),          // col=const: ignored
		Eq(Col("t.a"), Col("u.b")),      // kept
		And(Eq(Col("u.c"), Col("t.c"))), // nested AND: kept
		Or(Eq(Col("t.d"), Col("u.d"))),  // under OR: ignored
		Cmp(Col("t.e"), NE, Col("u.e")), // not EQ
	)
	want := [][2]string{{"t.a", "u.b"}, {"u.c", "t.c"}}
	if got := ColumnEqualities(pred); !reflect.DeepEqual(got, want) {
		t.Fatalf("equalities = %v, want %v", got, want)
	}
	if got := ColumnEqualities(nil); len(got) != 0 {
		t.Fatalf("nil predicate yields %v", got)
	}
}

func TestAppendColsEnumeratesEveryReference(t *testing.T) {
	sum := F("sum", value.Money, []string{"t.b", "t.f"}, func(v []int64) int64 { return v[0] + v[1] })
	p := And(
		Or(Gt(Col("t.a"), Lit(1)), Not(In("t.d", 1, 2))),
		Le(sum, Col("t.b")),
	)
	got := strings.Join(p.AppendCols([]string{"seed"}), " ")
	if want := "seed t.a t.d t.b t.f t.b"; got != want {
		t.Fatalf("AppendCols = %q, want %q", got, want)
	}
	if cols := DateLit(1995, 3, 15).AppendCols(nil); len(cols) != 0 {
		t.Fatalf("a literal reads %v", cols)
	}
}

func TestPositionsInRequiresAnOrderedSubset(t *testing.T) {
	full := exprSchema()
	pos, err := Schema{full[1], full[3]}.PositionsIn(full)
	if err != nil || len(pos) != 2 || pos[0] != 1 || pos[1] != 3 {
		t.Fatalf("PositionsIn = %v, %v; want [1 3]", pos, err)
	}
	if _, err := (Schema{full[3], full[1]}).PositionsIn(full); err == nil {
		t.Fatal("a reordered schema must not resolve")
	}
	if _, err := (Schema{{Name: "t.zz", Kind: value.Int}}).PositionsIn(full); err == nil {
		t.Fatal("an unknown column must not resolve")
	}
}
