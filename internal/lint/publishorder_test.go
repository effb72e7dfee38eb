package lint

import (
	"strings"
	"testing"
)

func TestPublishOrderFixtures(t *testing.T) { runWantDir(t, PublishOrder) }

// regressionPublishRace is the PR 6 publish-ordering race exactly as the
// 100-schedule chaos soak caught it at runtime: publishLocked stored the
// new Version first and rewrote the shared[] clone flags afterwards, so a
// concurrent writer whose only synchronization was the fast-path pub.Load
// could observe the fresh epoch with stale flags and mutate a partition
// the published version still referenced. The fix moved the bookkeeping
// before the store; this fixture preserves the pre-fix shape so the race
// class stays statically rejected.
const regressionPublishRace = `package table

import (
	"sync"
	"sync/atomic"
)

type Partition struct{ Rows []int }

type Version struct {
	Epoch int64
	Parts []*Partition
	Rows  int
}

type Partitioned struct {
	Parts        []*Partition
	OriginalRows int
	pub          atomic.Pointer[Version]
	pubMu        sync.Mutex
	shared       []bool
}

func (pt *Partitioned) publishLocked(epoch int64) int64 {
	parts := make([]*Partition, len(pt.Parts))
	copy(parts, pt.Parts)
	pt.pub.Store(&Version{Epoch: epoch, Parts: parts, Rows: pt.OriginalRows})
	if len(pt.shared) != len(pt.Parts) {
		pt.shared = make([]bool, len(pt.Parts)) // want "mutation of version-visible state after the atomic epoch publish"
	}
	for i := range pt.shared {
		pt.shared[i] = true // want "mutation of version-visible state after the atomic epoch publish"
	}
	return epoch
}
`

func TestRegressionPublishOrderingRace(t *testing.T) {
	runWant(t, "regression_publish_race.go", regressionPublishRace, []*Analyzer{PublishOrder})
}

// TestRegressionRequiresPublishOrder pins the regression to its analyzer:
// with publishorder disabled the rest of the suite is blind to the race,
// so this fixture — and CI's strict gate — genuinely depends on it.
func TestRegressionRequiresPublishOrder(t *testing.T) {
	var rest []*Analyzer
	for _, a := range Analyzers() {
		if a != PublishOrder {
			rest = append(rest, a)
		}
	}
	diags, err := RunSource("regression_publish_race.go", regressionPublishRace, rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("suite minus publishorder should not flag the race fixture, got %v", diags)
	}
	diags, err = RunSource("regression_publish_race.go", regressionPublishRace, []*Analyzer{PublishOrder})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("publishorder must flag the PR 6 race shape")
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "after the atomic epoch publish") {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}
