// Command prefbench regenerates every table and figure of the paper's
// evaluation (Section 5) and prints them as aligned text tables with the
// paper's reference values in the notes.
//
// Usage:
//
//	prefbench                    # run everything
//	prefbench -exp fig7          # one experiment
//	prefbench -exp table1,fig11a # several
//	prefbench -sf 0.02 -parts 10 # larger data
//	prefbench -exp fault         # degradation-vs-fault-probability sweep
//	prefbench -exp ops -q Q5     # per-operator breakdown of Q5 per variant
//	prefbench -exp hedge         # straggler tail latency, hedging off vs on
//	prefbench -exp fig7 -crash 0.05 -down 2 # fig7 under injected faults
//	prefbench -exp fig7 -timeout 1ms # deadline-bound; exits 2 on expiry
//	prefbench -list              # available experiment ids
//
// prefbench reproduces the paper's results; it does not measure speed.
// For that, run bash benchmark/run.sh (see benchmark/README.md).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"pref/internal/bench"
	"pref/internal/engine"
	"pref/internal/fault"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id(s), comma separated, or 'all'")
		sf     = flag.Float64("sf", 0.01, "TPC-H scale factor")
		dssf   = flag.Float64("dssf", 1.0, "TPC-DS scale factor")
		parts  = flag.Int("parts", 10, "number of partitions / nodes")
		seed   = flag.Int64("seed", 42, "generator seed")
		expand = flag.Bool("expand", false, "fig12: sweep every node count 1..100 instead of a coarse grid")
		query  = flag.String("q", "Q3", "ops: TPC-H query for the per-operator breakdown")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		jsonTo = flag.String("json", "", "directory to write BENCH_<experiment>.json artifacts into ('' = off)")

		crash     = flag.Float64("crash", 0, "fault: per-attempt work-unit crash probability")
		shipFail  = flag.Float64("shipfail", 0, "fault: per-attempt exchange-shipment failure probability")
		stragProb = flag.Float64("straggleprob", 0, "fault: straggler probability per work unit")
		straggle  = flag.Duration("straggle", 0, "fault: straggler delay (e.g. 5ms)")
		down      = flag.String("down", "", "fault: comma-separated permanently failed node ids")
		faultSeed = flag.Int64("faultseed", 1, "fault: injection seed")
		timeout   = flag.Duration("timeout", 0, "per-query deadline (0 = none); expiry fails the experiment with the typed deadline error and exit 2")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Println(e.ID)
		}
		return
	}

	if err := errors.Join(bench.CheckScale("-sf", *sf), bench.CheckScale("-dssf", *dssf)); err != nil {
		fmt.Fprintln(os.Stderr, "prefbench:", err)
		os.Exit(1)
	}

	p := bench.DefaultParams()
	p.SF = *sf
	p.DSSF = *dssf
	p.Parts = *parts
	p.Seed = *seed
	p.Expand = *expand
	p.Query = *query

	downNodes, err := parseNodeList(*down)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prefbench: -down: %v\n", err)
		os.Exit(1)
	}
	if *crash > 0 || *shipFail > 0 || *stragProb > 0 || len(downNodes) > 0 || *timeout > 0 {
		p.Fault = &fault.Policy{
			Seed:           *faultSeed,
			DownNodes:      downNodes,
			CrashProb:      *crash,
			ShipFailProb:   *shipFail,
			StragglerProb:  *stragProb,
			StragglerDelay: *straggle,
			Timeout:        *timeout,
		}
	}

	var ids []string
	if *exp == "all" {
		for _, e := range bench.Experiments {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}
	failed := false
	deadlineHit := false
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := bench.LookupExperiment(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "prefbench: unknown experiment %q (use -list)\n", id)
			failed = true
			continue
		}
		start := time.Now()
		r, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefbench: %s: %v\n", id, err)
			failed = true
			deadlineHit = deadlineHit || errors.Is(err, engine.ErrDeadlineExceeded)
			continue
		}
		elapsed := time.Since(start)
		fmt.Print(r.String())
		fmt.Printf("(%s in %v)\n\n", id, elapsed.Round(time.Millisecond))
		if *jsonTo != "" {
			if err := writeJSON(*jsonTo, r, elapsed); err != nil {
				fmt.Fprintf(os.Stderr, "prefbench: %s: %v\n", id, err)
				failed = true
			}
		}
	}
	if deadlineHit {
		// Distinct exit code for deadline expiry, as in prefquery.
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// writeJSON emits one BENCH_<id>.json artifact for CI trending.
func writeJSON(dir string, r *bench.Report, elapsed time.Duration) error {
	data, err := r.JSON(elapsed)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+r.ID+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n\n", path)
	return nil
}

// parseNodeList parses the comma-separated node ids of -down.
func parseNodeList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
