package check_test

import (
	"math/rand"
	"testing"

	"pref/internal/check"
	"pref/internal/plan"
)

// The property tests push randomly generated schemas, partitioning
// configurations, and SPJA queries (gen.go's exported generators, shared
// with the engine's trace-invariant tests) through the real rewrite and
// assert the two sides of the checker's contract: every rewrite-produced
// plan verifies cleanly, and a corrupted recorded property is detected.

// TestFuzzRewrittenPlansVerify is the soundness property: whatever the
// rewrite produces over a valid random design, Verify accepts — for the
// generated query and for a key join summed by its foreign key, some of
// which the rewrite sums in place on a PREF placement.
func TestFuzzRewrittenPlansVerify(t *testing.T) {
	const rounds = 400
	verified, inPlace := 0, 0
	for seed := int64(0); seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := check.GenSchema(rng)
		cfg := check.GenConfig(rng, s)
		if cfg.Validate(s) != nil {
			continue
		}
		if err := check.VerifyDesign(s, cfg); err != nil {
			t.Fatalf("seed %d: VerifyDesign rejects a config Validate accepts:\n%s\n%v", seed, cfg, err)
		}
		q := check.GenQuery(rng, s)
		for _, q := range []plan.Node{q, check.GenKeyJoinSums(rng, s, cfg)} {
			rw, err := plan.Rewrite(q, s, cfg, plan.Options{})
			if err != nil {
				t.Fatalf("seed %d: rewrite failed on generated query: %v\n%s", seed, err, plan.Format(q))
			}
			if err := check.Verify(rw); err != nil {
				t.Fatalf("seed %d: Verify rejects a rewrite-produced plan:\n%v\nconfig:\n%splan:\n%s",
					seed, err, cfg, rw.Explain())
			}
			for _, p := range rw.Props {
				if p.Orphans != "" {
					inPlace++
					break
				}
			}
		}
		verified++
	}
	if verified < rounds/2 {
		t.Fatalf("only %d/%d seeds produced a verifiable scenario; generator is degenerate", verified, rounds)
	}
	if inPlace == 0 {
		t.Fatalf("no plan of %d seeds sums a PREF input in place", rounds)
	}
	t.Logf("%d of %d seeds sum a PREF input in place", inPlace, rounds)
}

// TestFuzzCorruptedPartsDetected is the completeness spot-check: flipping
// the recorded partition count of any reachable operator is always caught.
func TestFuzzCorruptedPartsDetected(t *testing.T) {
	const rounds = 150
	checked := 0
	for seed := int64(0); seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := check.GenSchema(rng)
		cfg := check.GenConfig(rng, s)
		if cfg.Validate(s) != nil {
			continue
		}
		q := check.GenQuery(rng, s)
		rw, err := plan.Rewrite(q, s, cfg, plan.Options{})
		if err != nil || check.Verify(rw) != nil {
			continue
		}
		// Pick a reachable node and corrupt its recorded Parts.
		var nodes []plan.Node
		var walk func(plan.Node)
		seen := map[plan.Node]bool{}
		walk = func(n plan.Node) {
			if seen[n] {
				return
			}
			seen[n] = true
			nodes = append(nodes, n)
			for _, c := range n.Children() {
				walk(c)
			}
		}
		walk(rw.Root)
		victim := nodes[rng.Intn(len(nodes))]
		rw.Props[victim].Parts += 7
		err = check.Verify(rw)
		if err == nil || !check.ViolationsOf(err).HasRule(check.RuleStaleProp) {
			t.Fatalf("seed %d: corrupted Parts on %s not detected (got %v)\nplan:\n%s",
				seed, victim, err, rw.Explain())
		}
		checked++
	}
	if checked < rounds/3 {
		t.Fatalf("only %d/%d seeds reached the corruption check; generator is degenerate", checked, rounds)
	}
}
