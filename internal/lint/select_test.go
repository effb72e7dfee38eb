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
	want := "invariantpanic ctxthread propalias publishorder batchlifetime"
	if got := strings.Join(names(got), " "); got != want {
		t.Fatalf("no filters must keep the full roster:\ngot  %s\nwant %s", got, want)
	}
}

func TestSelectAnalyzersOnly(t *testing.T) {
	got, err := SelectAnalyzers(Analyzers(), "batchlifetime, invariantpanic", "")
	if err != nil {
		t.Fatal(err)
	}
	// Roster order is preserved regardless of flag order.
	want := []string{"invariantpanic", "batchlifetime"}
	if strings.Join(names(got), " ") != strings.Join(want, " ") {
		t.Fatalf("got %v, want %v", names(got), want)
	}
}

func TestSelectAnalyzersSkip(t *testing.T) {
	all := Analyzers()
	got, err := SelectAnalyzers(all, "", "batchlifetime")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all)-1 {
		t.Fatalf("skip of one analyzer: got %d, want %d", len(got), len(all)-1)
	}
	for _, a := range got {
		if a.Name == "batchlifetime" {
			t.Fatal("skipped analyzer still in the selection")
		}
	}
}

func TestSelectAnalyzersOnlyThenSkip(t *testing.T) {
	got, err := SelectAnalyzers(Analyzers(), "propalias,batchlifetime", "batchlifetime")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "propalias" {
		t.Fatalf("got %v, want [propalias]", names(got))
	}
}

func TestSelectAnalyzersUnknown(t *testing.T) {
	if _, err := SelectAnalyzers(Analyzers(), "nosuchanalyzer", ""); err == nil {
		t.Fatal("unknown -only name must error, not silently drop")
	} else if !strings.Contains(err.Error(), "nosuchanalyzer") {
		t.Fatalf("error should name the offender: %v", err)
	}
	if _, err := SelectAnalyzers(Analyzers(), "", "batchliftime"); err == nil {
		t.Fatal("unknown -skip name must error: a typo would disable a gate")
	}
}
