package lint

import (
	"strings"
	"testing"
)

func names(as []*Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

func TestSelectAnalyzersDefault(t *testing.T) {
	got, err := SelectAnalyzers(Analyzers(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	// The roster, in driver order.
	want := "invariantpanic ctxthread publishorder"
	if got := strings.Join(names(got), " "); got != want {
		t.Fatalf("no filters must keep the full roster:\ngot  %s\nwant %s", got, want)
	}
}

func TestSelectAnalyzersOnly(t *testing.T) {
	got, err := SelectAnalyzers(Analyzers(), "publishorder, invariantpanic", "")
	if err != nil {
		t.Fatal(err)
	}
	// Roster order is preserved regardless of flag order.
	want := []string{"invariantpanic", "publishorder"}
	if strings.Join(names(got), " ") != strings.Join(want, " ") {
		t.Fatalf("got %v, want %v", names(got), want)
	}
}

func TestSelectAnalyzersSkip(t *testing.T) {
	all := Analyzers()
	got, err := SelectAnalyzers(all, "", "publishorder")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all)-1 {
		t.Fatalf("skip of one analyzer: got %d, want %d", len(got), len(all)-1)
	}
	for _, a := range got {
		if a.Name == "publishorder" {
			t.Fatal("skipped analyzer still in the selection")
		}
	}
}

func TestSelectAnalyzersOnlyThenSkip(t *testing.T) {
	got, err := SelectAnalyzers(Analyzers(), "publishorder,ctxthread", "ctxthread")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "publishorder" {
		t.Fatalf("got %v, want [publishorder]", names(got))
	}
}

func TestSelectAnalyzersUnknown(t *testing.T) {
	if _, err := SelectAnalyzers(Analyzers(), "nosuchanalyzer", ""); err == nil {
		t.Fatal("unknown -only name must error, not silently drop")
	} else if !strings.Contains(err.Error(), "nosuchanalyzer") {
		t.Fatalf("error should name the offender: %v", err)
	}
	if _, err := SelectAnalyzers(Analyzers(), "", "publishordr"); err == nil {
		t.Fatal("unknown -skip name must error: a typo would disable a gate")
	}
	// A retired analyzer is unknown like any other name: Prop's column
	// lists and a Batch's storage are owned by construction, so propalias
	// and batchwrite have nothing to check.
	for _, name := range []string{"propalias", "batchwrite"} {
		for _, flags := range [][2]string{{name, ""}, {"", name}} {
			if _, err := SelectAnalyzers(Analyzers(), flags[0], flags[1]); err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("-only %q -skip %q: got %v, want an error naming %s", flags[0], flags[1], err, name)
			}
		}
	}
}
