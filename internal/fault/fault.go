// Package fault provides deterministic, seed-driven fault injection for
// the engine's simulated shared-nothing cluster. A Policy declares which
// logical nodes are down, which are flaky or slow, and how often exchange
// shipments fail; an Injector answers per-work-unit questions ("does
// attempt 2 of operator 5 on node 3 crash?") from a pure hash of the seed
// and the unit's identity, so the fault schedule is a function of the
// policy alone — independent of goroutine scheduling, wall-clock time, and
// prior queries. That determinism is what lets tests assert that the same
// seed yields the same schedule and byte-identical query results.
package fault

import (
	"errors"
	"fmt"
	"time"
)

// Sentinel errors for the failure modes that survive the retry budget.
var (
	// ErrNodeFailed reports a work unit that crashed on every attempt the
	// retry budget allowed.
	ErrNodeFailed = errors.New("fault: node failed")
	// ErrShipmentFailed reports an exchange shipment that failed on every
	// attempt the retry budget allowed.
	ErrShipmentFailed = errors.New("fault: exchange shipment failed")
	// ErrPartitionLost reports a permanently failed node whose base-table
	// partition could not be reconstructed from redundancy (no surviving
	// duplicate copies cover it). Match with errors.Is; the concrete
	// *PartitionLostError carries the table and partition.
	ErrPartitionLost = errors.New("fault: partition lost")
	// ErrWriteCrashed reports a write batch killed by an injected crash
	// somewhere between logging its intent and publishing its epoch. The
	// store head may be torn; the loader refuses further writes until its
	// recovery routine has rolled back and replayed the pending intents.
	ErrWriteCrashed = errors.New("fault: write crashed mid-batch")
)

// PartitionLostError is the well-typed recovery failure: partition
// Partition of Table was on a permanently failed node and MissingRows of
// its stored tuple copies have no identical copy on any surviving node.
type PartitionLostError struct {
	Table       string
	Partition   int
	MissingRows int
}

func (e *PartitionLostError) Error() string {
	return fmt.Sprintf("fault: partition %d of table %s lost: %d rows have no surviving duplicate copy",
		e.Partition, e.Table, e.MissingRows)
}

// Unwrap makes errors.Is(err, ErrPartitionLost) work.
func (e *PartitionLostError) Unwrap() error { return ErrPartitionLost }

// DefaultMaxAttempts is the per-unit retry budget when the policy sets none.
const DefaultMaxAttempts = 4

// backoffBase and backoffMax bound the capped exponential backoff between
// attempts: min(backoffBase << attempt, backoffMax).
const (
	backoffBase = 200 * time.Microsecond
	backoffMax  = 5 * time.Millisecond
)

// Policy declares the faults to inject into one query execution. The zero
// value injects nothing.
type Policy struct {
	// Seed drives every probabilistic decision. Two executions with equal
	// policies produce identical fault schedules.
	Seed int64

	// DownNodes lists logical nodes that are permanently failed: their
	// work units fail over to a surviving buddy node and their base-table
	// partitions must be reconstructed from redundancy (or the query
	// fails with ErrPartitionLost).
	DownNodes []int

	// FlakyNodes maps a node to the number of leading attempts of every
	// work unit executing on it that crash before one succeeds (transient
	// crash-recover). A value >= the retry budget makes the node fail
	// every unit terminally.
	FlakyNodes map[int]int

	// RepairAfterProbes maps a node to the number of failed half-open
	// probes after which its node-level fault (permanent down, flaky
	// crashes) heals — the simulation stand-in for an operator replacing
	// the hardware while the cluster layer keeps probing. A node without
	// an entry never heals. ProbeOK reads it with the cluster layer's
	// per-node count of failed probes; NodeDown reads it at zero probes.
	RepairAfterProbes map[int]int

	// CrashProb is the probability that any single work-unit attempt
	// crashes after doing its work; the output is discarded and the
	// attempt retried with backoff.
	CrashProb float64

	// StragglerProb is the probability that a work unit is a straggler;
	// a straggling unit sleeps StragglerDelay before each attempt.
	StragglerProb  float64
	StragglerDelay time.Duration

	// ShipFailProb is the probability that one exchange shipment attempt
	// fails; failed attempts are re-shipped (their bytes still hit the
	// wire and are additionally counted as wasted).
	ShipFailProb float64

	// WriteCrashProb is the probability that one write batch crashes at
	// an injected point of its apply path: after the intent is logged,
	// between fan-out steps, mid-append (a torn write: values appended,
	// index entries not), or after the last step but before the epoch publishes.
	// The crashed loader surfaces ErrWriteCrashed and must run recovery.
	WriteCrashProb float64
	// WriteIndexRaceProb is the probability that a batch's cached §2.3
	// partition indexes are invalidated underneath it just before apply —
	// the simulation of an invalidation racing the write path. Outcomes
	// must not change: the batch replans from base data.
	WriteIndexRaceProb float64

	// MaxAttempts caps attempts per work unit / shipment
	// (default DefaultMaxAttempts).
	MaxAttempts int

	// Timeout is the per-query deadline (0 = none). Exceeding it cancels
	// all in-flight units and surfaces context.DeadlineExceeded.
	Timeout time.Duration
}

// Injector answers fault questions for one execution. A nil *Injector is
// valid and injects nothing, so callers need no nil checks.
type Injector struct {
	seed           int64
	down           map[int]bool
	flaky          map[int]int
	repair         map[int]int
	crashProb      float64
	stragglerProb  float64
	stragglerDelay time.Duration
	shipFailProb   float64
	writeCrashProb float64
	writeRaceProb  float64
	maxAttempts    int
	timeout        time.Duration
}

// NewInjector compiles a policy into an injector, applying defaults.
func NewInjector(p Policy) *Injector {
	in := &Injector{
		seed:           p.Seed,
		down:           make(map[int]bool, len(p.DownNodes)),
		flaky:          make(map[int]int, len(p.FlakyNodes)),
		crashProb:      p.CrashProb,
		stragglerProb:  p.StragglerProb,
		stragglerDelay: p.StragglerDelay,
		shipFailProb:   p.ShipFailProb,
		writeCrashProb: p.WriteCrashProb,
		writeRaceProb:  p.WriteIndexRaceProb,
		maxAttempts:    p.MaxAttempts,
		timeout:        p.Timeout,
	}
	for _, n := range p.DownNodes {
		in.down[n] = true
	}
	for n, k := range p.FlakyNodes {
		in.flaky[n] = k
	}
	if len(p.RepairAfterProbes) > 0 {
		in.repair = make(map[int]int, len(p.RepairAfterProbes))
		for n, k := range p.RepairAfterProbes {
			in.repair[n] = k
		}
	}
	if in.maxAttempts <= 0 {
		in.maxAttempts = DefaultMaxAttempts
	}
	return in
}

// draw kinds keep the decision streams independent of each other.
const (
	kindCrash = iota + 1
	kindStraggle
	kindShip
	kindBackoff
	kindWriteCrash
	kindWriteStage
	kindWriteStep
	kindWriteRace
)

// mix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform [0,1) value determined purely by the seed and
// the (kind, a, b, c) identity of the decision.
func (in *Injector) draw(kind, a, b, c int) float64 {
	h := mix64(uint64(in.seed))
	h = mix64(h ^ uint64(kind))
	h = mix64(h ^ uint64(a))
	h = mix64(h ^ uint64(b))
	h = mix64(h ^ uint64(c))
	return float64(h>>11) / (1 << 53)
}

// NodeDown reports whether the policy lists a node as permanently failed
// before any probe has run (a RepairAfterProbes entry of 0 heals it at
// once). A down node heals through a passed ProbeOK: the cluster layer then
// reports it recovered, and the engine ignores NodeDown for it.
func (in *Injector) NodeDown(node int) bool {
	return in != nil && in.down[node] && !in.repaired(node, 0)
}

// ProbeOK is the half-open probe hook: it reports whether a trial request
// against the node would succeed after the given number of failed probes.
// A node the policy never faulted always probes healthy; a permanently
// down or terminally flaky node probes healthy only once repaired.
func (in *Injector) ProbeOK(node, probes int) bool {
	if in == nil {
		return true
	}
	if in.down[node] || in.flaky[node] >= in.maxAttempts {
		return in.repaired(node, probes)
	}
	return true
}

// repaired reports whether the node's fault healed: the policy declares a
// repair threshold and at least that many probes have failed since.
func (in *Injector) repaired(node, probes int) bool {
	k, ok := in.repair[node]
	return ok && probes >= k
}

// CrashAttempt reports whether the given attempt of a work unit
// (operator op, executing node) crashes.
func (in *Injector) CrashAttempt(op, node, attempt int) bool {
	if in == nil {
		return false
	}
	if attempt < in.flaky[node] {
		return true
	}
	return in.crashProb > 0 && in.draw(kindCrash, op, node, attempt) < in.crashProb
}

// StragglerDelay returns the extra latency a work unit pays before each
// attempt, or 0 when the unit is not a straggler.
func (in *Injector) StragglerDelay(op, node int) time.Duration {
	if in == nil || in.stragglerProb <= 0 || in.stragglerDelay <= 0 {
		return 0
	}
	if in.draw(kindStraggle, op, node, 0) < in.stragglerProb {
		return in.stragglerDelay
	}
	return 0
}

// ShipFail reports whether one exchange shipment attempt from src fails.
func (in *Injector) ShipFail(op, src, attempt int) bool {
	if in == nil || in.shipFailProb <= 0 {
		return false
	}
	return in.draw(kindShip, op, src, attempt) < in.shipFailProb
}

// MaxAttempts returns the per-unit retry budget.
func (in *Injector) MaxAttempts() int {
	if in == nil {
		return DefaultMaxAttempts
	}
	return in.maxAttempts
}

// Backoff returns the delay before retrying after the given failed
// attempt of a work unit (operator op on node): capped exponential
// min(backoffBase << attempt, backoffMax), jittered into [d/2, d) by a
// deterministic draw keyed by the retry's identity. The jitter
// desynchronizes retries from different units against a shared flaky node
// (pure exponential backoff fires them in lockstep), while a fixed seed
// still reproduces the schedule exactly — the jitter comes from the same
// mix64 stream as every other fault decision.
func (in *Injector) Backoff(op, node, attempt int) time.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	if in == nil {
		return d
	}
	half := d / 2
	return half + time.Duration(in.draw(kindBackoff, op, node, attempt)*float64(half))
}

// Timeout returns the per-query deadline (0 = none).
func (in *Injector) Timeout() time.Duration {
	if in == nil {
		return 0
	}
	return in.timeout
}

// WriteStage identifies where in a write batch's apply path an injected
// crash fires. The stages map to the recovery-relevant states of the
// batch: intent durable but nothing applied, fan-out interrupted between
// partitions, a torn append inside one partition, and fully applied but
// unpublished.
type WriteStage int

const (
	// WriteNoCrash: the batch completes normally.
	WriteNoCrash WriteStage = iota
	// CrashAfterIntent fires after the intent is logged, before any
	// partition is touched. Recovery replays the intent from scratch.
	CrashAfterIntent
	// CrashMidApply fires between two fan-out steps: a prefix of the
	// batch's partitions carries the write, the rest does not.
	CrashMidApply
	// CrashTornApply fires inside one step's append loop: a row's
	// values land without its index entries (the torn-page analogue),
	// violating the equal-column-length invariant until recovery.
	CrashTornApply
	// CrashBeforePublish fires after the last step, before the batch's
	// epoch publishes: the head carries the full write, readers never
	// see it, and recovery replays it to completion.
	CrashBeforePublish
)

func (s WriteStage) String() string {
	switch s {
	case WriteNoCrash:
		return "no-crash"
	case CrashAfterIntent:
		return "after-intent"
	case CrashMidApply:
		return "mid-apply"
	case CrashTornApply:
		return "torn-apply"
	case CrashBeforePublish:
		return "before-publish"
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// WriteCrash decides whether (and where) write batch seq crashes, given
// its planned fan-out step count. The decision is a pure function of the
// seed and the batch sequence number, so one seed reproduces the same
// crash schedule for the same write stream regardless of timing.
func (in *Injector) WriteCrash(seq, steps int) (WriteStage, int) {
	if in == nil || in.writeCrashProb <= 0 {
		return WriteNoCrash, 0
	}
	if in.draw(kindWriteCrash, seq, 0, 0) >= in.writeCrashProb {
		return WriteNoCrash, 0
	}
	stage := CrashAfterIntent + WriteStage(in.draw(kindWriteStage, seq, 0, 0)*4)
	if stage > CrashBeforePublish {
		stage = CrashBeforePublish
	}
	if steps == 0 && (stage == CrashMidApply || stage == CrashTornApply) {
		// A batch with no physical steps (e.g. a no-op delete) can only
		// crash around the intent or the publish.
		stage = CrashAfterIntent
	}
	step := 0
	if steps > 0 {
		step = int(in.draw(kindWriteStep, seq, 0, 0) * float64(steps))
		if step >= steps {
			step = steps - 1
		}
	}
	return stage, step
}

// WriteIndexRace decides whether batch seq's cached partition indexes
// are invalidated just before it applies (the invalidation race).
func (in *Injector) WriteIndexRace(seq int) bool {
	if in == nil || in.writeRaceProb <= 0 {
		return false
	}
	return in.draw(kindWriteRace, seq, 0, 0) < in.writeRaceProb
}
