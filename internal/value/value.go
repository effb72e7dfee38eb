// Package value defines the typed column values used across the engine.
//
// Every value is stored as an int64: dates as day numbers since 1970-01-01,
// money as integer cents, strings as codes into a per-column dictionary, and
// floats as their IEEE-754 bit pattern. This keeps tuples flat ([]int64),
// makes composite-key equality exact, and keeps hashing allocation-free —
// the properties the PREF partitioner and the exchange operators rely on.
package value

import (
	"fmt"
	"math"
	"time"
)

// Kind describes how the int64 payload of a column is interpreted.
type Kind uint8

const (
	// Int is a plain 64-bit integer (keys, quantities).
	Int Kind = iota
	// Money is a fixed-point amount in cents.
	Money
	// Date is a day number since the Unix epoch.
	Date
	// Str is a code into a column dictionary.
	Str
	// Float is an IEEE-754 double stored via math.Float64bits.
	Float
)

func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Money:
		return "money"
	case Date:
		return "date"
	case Str:
		return "str"
	case Float:
		return "float"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Null is the payload of SQL NULL in every kind: outer joins produce it, and
// a date column a declared gap bounds (catalog.DateGap) never stores it.
const Null = math.MinInt64

// Tuple is one row: a flat slice of encoded values, positionally matched to
// a table's (or intermediate result's) column list.
type Tuple []int64

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// FromFloat encodes a float64 payload.
func FromFloat(f float64) int64 { return int64(math.Float64bits(f)) }

// ToFloat decodes a Float payload.
func ToFloat(v int64) float64 { return math.Float64frombits(uint64(v)) }

// FromMoney encodes a dollar amount to cents, rounding half away from zero.
func FromMoney(dollars float64) int64 {
	if dollars >= 0 {
		return int64(dollars*100 + 0.5)
	}
	return int64(dollars*100 - 0.5)
}

// ToMoney decodes cents to dollars.
func ToMoney(v int64) float64 { return float64(v) / 100 }

// FromDate encodes a calendar date as days since the Unix epoch.
func FromDate(year int, month time.Month, day int) int64 {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return t.Unix() / 86400
}

// ToDate decodes a day number to a UTC time at midnight.
func ToDate(v int64) time.Time { return time.Unix(v*86400, 0).UTC() }

// Dict is an append-only string dictionary for one Str column. Code 0 is
// reserved for the empty string so zero-valued tuples decode cleanly.
type Dict struct {
	codes   map[string]int64
	strings []string
}

// NewDict returns a dictionary containing only the empty string at code 0.
func NewDict() *Dict {
	return &Dict{codes: map[string]int64{"": 0}, strings: []string{""}}
}

// Code interns s and returns its code.
func (d *Dict) Code(s string) int64 {
	if c, ok := d.codes[s]; ok {
		return c
	}
	c := int64(len(d.strings))
	d.codes[s] = c
	d.strings = append(d.strings, s)
	return c
}

// Lookup returns the code for s and whether it is present.
func (d *Dict) Lookup(s string) (int64, bool) {
	c, ok := d.codes[s]
	return c, ok
}

// String returns the string for code c, or "" if out of range.
func (d *Dict) String(c int64) string {
	if c < 0 || c >= int64(len(d.strings)) {
		return ""
	}
	return d.strings[c]
}

// Size reports the number of interned strings (including "").
func (d *Dict) Size() int { return len(d.strings) }
