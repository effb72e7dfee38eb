package fault

import (
	"errors"
	"testing"
	"time"
)

// grid captures every injector decision over a small (op, node, attempt)
// cube so two injectors can be compared decision-for-decision.
func grid(in *Injector) (crash []bool, straggle []time.Duration, ship []bool) {
	for op := 0; op < 8; op++ {
		for node := 0; node < 4; node++ {
			straggle = append(straggle, in.StragglerDelay(op, node))
			for attempt := 0; attempt < 4; attempt++ {
				crash = append(crash, in.CrashAttempt(op, node, attempt))
				ship = append(ship, in.ShipFail(op, node, attempt))
			}
		}
	}
	return
}

func eqBools(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSameSeedSameSchedule(t *testing.T) {
	p := Policy{
		Seed:           42,
		CrashProb:      0.3,
		StragglerProb:  0.4,
		StragglerDelay: time.Millisecond,
		ShipFailProb:   0.2,
	}
	c1, s1, sh1 := grid(NewInjector(p))
	c2, s2, sh2 := grid(NewInjector(p))
	if !eqBools(c1, c2) || !eqBools(sh1, sh2) {
		t.Fatal("same policy produced different crash/ship schedules")
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same policy produced different straggler schedules")
		}
	}
}

func TestDifferentSeedDifferentSchedule(t *testing.T) {
	p := Policy{
		Seed:           1,
		CrashProb:      0.3,
		StragglerProb:  0.4,
		StragglerDelay: time.Millisecond,
		ShipFailProb:   0.2,
	}
	q := p
	q.Seed = 2
	c1, _, sh1 := grid(NewInjector(p))
	c2, _, sh2 := grid(NewInjector(q))
	if eqBools(c1, c2) && eqBools(sh1, sh2) {
		t.Fatal("different seeds produced identical schedules over 128 draws")
	}
}

func TestCrashProbExtremes(t *testing.T) {
	always := NewInjector(Policy{CrashProb: 1})
	never := NewInjector(Policy{CrashProb: 0})
	for op := 0; op < 4; op++ {
		if !always.CrashAttempt(op, 0, 0) {
			t.Fatalf("CrashProb=1: op %d attempt did not crash", op)
		}
		if never.CrashAttempt(op, 0, 0) {
			t.Fatalf("CrashProb=0: op %d attempt crashed", op)
		}
	}
}

func TestFlakyNodes(t *testing.T) {
	in := NewInjector(Policy{FlakyNodes: map[int]int{1: 2}})
	for attempt := 0; attempt < 4; attempt++ {
		want := attempt < 2
		if got := in.CrashAttempt(7, 1, attempt); got != want {
			t.Fatalf("flaky node attempt %d: crash=%v, want %v", attempt, got, want)
		}
		if in.CrashAttempt(7, 0, attempt) {
			t.Fatalf("non-flaky node crashed on attempt %d", attempt)
		}
	}
}

func TestNodeDown(t *testing.T) {
	in := NewInjector(Policy{DownNodes: []int{2}})
	if !in.NodeDown(2) {
		t.Fatal("node 2 should be down")
	}
	if in.NodeDown(0) || in.NodeDown(1) || in.NodeDown(3) {
		t.Fatal("only node 2 should be down")
	}
}

// TestBackoffJitterBounds: the jittered backoff stays within [d/2, d] of
// the capped exponential envelope d = min(200µs << attempt, 5ms).
func TestBackoffJitterBounds(t *testing.T) {
	in := NewInjector(Policy{Seed: 7})
	envelope := []time.Duration{
		200 * time.Microsecond, 400 * time.Microsecond, 800 * time.Microsecond,
		1600 * time.Microsecond, 3200 * time.Microsecond,
		5 * time.Millisecond, 5 * time.Millisecond,
	}
	for attempt, d := range envelope {
		for node := 0; node < 4; node++ {
			got := in.Backoff(3, node, attempt)
			if got < d/2 || got > d {
				t.Fatalf("Backoff(3, %d, %d) = %v, want within [%v, %v]", node, attempt, got, d/2, d)
			}
		}
	}
}

// TestBackoffDeterministicAndDesynced: a fixed seed reproduces the jitter
// exactly, while two nodes retrying against the same operator are not in
// lockstep.
func TestBackoffDeterministicAndDesynced(t *testing.T) {
	a := NewInjector(Policy{Seed: 42})
	b := NewInjector(Policy{Seed: 42})
	for attempt := 0; attempt < 5; attempt++ {
		if a.Backoff(1, 0, attempt) != b.Backoff(1, 0, attempt) {
			t.Fatalf("same seed, different backoff at attempt %d", attempt)
		}
	}
	desynced := false
	for attempt := 0; attempt < 5; attempt++ {
		if a.Backoff(1, 0, attempt) != a.Backoff(1, 1, attempt) {
			desynced = true
		}
	}
	if !desynced {
		t.Fatal("nodes 0 and 1 retry in lockstep: jitter must desynchronize per-node schedules")
	}
}

func TestDefaults(t *testing.T) {
	in := NewInjector(Policy{})
	if in.MaxAttempts() != DefaultMaxAttempts {
		t.Fatalf("MaxAttempts = %d, want %d", in.MaxAttempts(), DefaultMaxAttempts)
	}
	if d := in.Backoff(0, 0, 0); d < backoffBase/2 || d > backoffBase {
		t.Fatalf("Backoff(0,0,0) = %v, want within [%v, %v]", d, backoffBase/2, backoffBase)
	}
	if d := in.Backoff(0, 0, 100); d < backoffMax/2 || d > backoffMax {
		t.Fatalf("Backoff(0,0,100) = %v, want within [%v, %v]", d, backoffMax/2, backoffMax)
	}
}

// TestNodeRepair: a down node stays down until the probe at its repair
// threshold (a count of failed half-open probes) passes.
func TestNodeRepair(t *testing.T) {
	in := NewInjector(Policy{DownNodes: []int{1}, RepairAfterProbes: map[int]int{1: 2}})
	if !in.NodeDown(1) {
		t.Fatal("node 1 should be down before any probe")
	}
	if in.ProbeOK(1, 0) || in.ProbeOK(1, 1) {
		t.Fatal("probes before the repair threshold must fail")
	}
	if !in.ProbeOK(1, 2) {
		t.Fatal("probe at the repair threshold must succeed")
	}
	// A repair threshold of 0 heals the node before the first probe.
	if NewInjector(Policy{DownNodes: []int{1}, RepairAfterProbes: map[int]int{1: 0}}).NodeDown(1) {
		t.Fatal("node with RepairAfterProbes 0 must not be down")
	}
	// A node without a repair entry never heals.
	in2 := NewInjector(Policy{DownNodes: []int{0}})
	if !in2.NodeDown(0) || in2.ProbeOK(0, 1000) {
		t.Fatal("node without RepairAfterProbes must never heal")
	}
	// A healthy node always probes OK; a terminally flaky node heals too.
	if !in2.ProbeOK(3, 0) {
		t.Fatal("unfaulted node must probe healthy")
	}
	in3 := NewInjector(Policy{FlakyNodes: map[int]int{2: 99}, RepairAfterProbes: map[int]int{2: 1}})
	if in3.ProbeOK(2, 0) || !in3.ProbeOK(2, 1) {
		t.Fatal("terminally flaky node must heal at its repair threshold")
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in.NodeDown(0) || in.CrashAttempt(0, 0, 0) || in.ShipFail(0, 0, 0) {
		t.Fatal("nil injector injected a fault")
	}
	if in.StragglerDelay(0, 0) != 0 {
		t.Fatal("nil injector straggled")
	}
	if in.MaxAttempts() != DefaultMaxAttempts {
		t.Fatal("nil injector should use the default retry budget")
	}
	if in.Timeout() != 0 {
		t.Fatal("nil injector should have no timeout")
	}
}

func TestPartitionLostError(t *testing.T) {
	var err error = &PartitionLostError{Table: "orders", Partition: 3, MissingRows: 7}
	if !errors.Is(err, ErrPartitionLost) {
		t.Fatal("PartitionLostError should match ErrPartitionLost via errors.Is")
	}
	var ple *PartitionLostError
	if !errors.As(err, &ple) || ple.Table != "orders" || ple.Partition != 3 || ple.MissingRows != 7 {
		t.Fatalf("errors.As round-trip failed: %+v", ple)
	}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestWriteCrashDeterministicAndDistributed(t *testing.T) {
	in := NewInjector(Policy{Seed: 11, WriteCrashProb: 0.5})
	seen := map[WriteStage]int{}
	crashes := 0
	for seq := 0; seq < 400; seq++ {
		stage, step := in.WriteCrash(seq, 6)
		s2, p2 := in.WriteCrash(seq, 6)
		if stage != s2 || step != p2 {
			t.Fatalf("seq %d: write-crash draw not deterministic", seq)
		}
		if stage == WriteNoCrash {
			continue
		}
		crashes++
		seen[stage]++
		if step < 0 || step >= 6 {
			t.Fatalf("seq %d: step %d out of range", seq, step)
		}
	}
	if crashes < 100 || crashes > 300 {
		t.Fatalf("crashes = %d of 400 at prob 0.5, schedule skewed", crashes)
	}
	for _, stage := range []WriteStage{CrashAfterIntent, CrashMidApply, CrashTornApply, CrashBeforePublish} {
		if seen[stage] == 0 {
			t.Fatalf("stage %v never drawn in 400 batches", stage)
		}
		if stage.String() == "" {
			t.Fatalf("stage %v renders empty", stage)
		}
	}
}

func TestWriteCrashZeroStepsAvoidsApplyStages(t *testing.T) {
	in := NewInjector(Policy{Seed: 5, WriteCrashProb: 1})
	for seq := 0; seq < 64; seq++ {
		stage, step := in.WriteCrash(seq, 0)
		if stage == CrashMidApply || stage == CrashTornApply {
			t.Fatalf("seq %d: apply-stage crash with zero steps", seq)
		}
		if step != 0 {
			t.Fatalf("seq %d: step = %d with zero steps", seq, step)
		}
	}
}

func TestWriteHooksNilAndDisabled(t *testing.T) {
	var nilIn *Injector
	if s, _ := nilIn.WriteCrash(1, 4); s != WriteNoCrash {
		t.Fatal("nil injector crashed a write")
	}
	if nilIn.WriteIndexRace(1) {
		t.Fatal("nil injector raced an index")
	}
	in := NewInjector(Policy{Seed: 9})
	if s, _ := in.WriteCrash(1, 4); s != WriteNoCrash {
		t.Fatal("zero WriteCrashProb crashed a write")
	}
	if in.WriteIndexRace(1) {
		t.Fatal("zero WriteIndexRaceProb raced an index")
	}
	raced := 0
	inR := NewInjector(Policy{Seed: 9, WriteIndexRaceProb: 0.5})
	for seq := 0; seq < 100; seq++ {
		if inR.WriteIndexRace(seq) != inR.WriteIndexRace(seq) {
			t.Fatal("index-race draw not deterministic")
		}
		if inR.WriteIndexRace(seq) {
			raced++
		}
	}
	if raced == 0 || raced == 100 {
		t.Fatalf("raced = %d of 100 at prob 0.5", raced)
	}
}
