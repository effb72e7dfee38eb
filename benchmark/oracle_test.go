package main

import (
	"encoding/json"
	"math"
	"testing"

	"pref/internal/value"
)

func TestRowLineMatchesServerEncoding(t *testing.T) {
	// prefserve writes rows with json.Encoder on []int64.
	row := value.Tuple{0, -1, 42, math.MaxInt64, math.MinInt64}
	want, err := json.Marshal([]int64(row))
	if err != nil {
		t.Fatal(err)
	}
	if got := appendRowLine(nil, row); string(got) != string(want) {
		t.Errorf("appendRowLine = %s, want %s", got, want)
	}
	if got := appendRowLine(nil, value.Tuple{}); string(got) != "[]" {
		t.Errorf("empty row = %s, want []", got)
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	rows := []value.Tuple{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 2, 3}}
	a := digestRows(rows)
	b := digestRows([]value.Tuple{rows[3], rows[1], rows[0], rows[2]})
	if a != b {
		t.Errorf("digest depends on row order: %+v vs %+v", a, b)
	}
	if a.Rows != 4 {
		t.Errorf("digest counts %d rows, want 4", a.Rows)
	}
	if c := digestRows([]value.Tuple{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {1, 2, 4}}); c == a {
		t.Error("a changed value left the digest unchanged")
	}
	if c := digestRows(rows[:3]); c == a {
		t.Error("a dropped duplicate row left the digest unchanged")
	}
	// Moving a value across the column boundary must change the line.
	if digestRows([]value.Tuple{{12, 3}}) == digestRows([]value.Tuple{{1, 23}}) {
		t.Error("digest ignores column boundaries")
	}
}
