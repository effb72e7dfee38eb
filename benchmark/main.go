// Command benchmark is the repository's benchmark: four closed-loop TPC-H
// workloads, three of them through a prefserve process over HTTP, each
// reply checked against a single-node oracle. See README.md.
//
//	bash benchmark/run.sh --workload join_pref --seed 42 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload join_pref --trace 1     # per-layer pass
//	bash benchmark/run.sh                                    # all four, measured then traced
//	bash benchmark/run.sh --repeat 6                         # same-code agreement check
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config is one invocation's settings: what the driver passes, plus where
// run.sh put the server binary and where files may be written.
type config struct {
	seed      int64
	window    time.Duration
	scale     scale
	serverBin string
	outDir    string
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload to run; empty runs all four, measured then traced")
		seed    = flag.Int64("seed", 42, "seeds tpch.Generate / prefserve -seed, each client's query order and the write stream")
		seconds = flag.Int("seconds", 15, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced pass")
		repeat  = flag.Int("repeat", 0, "run the suite this many times and compare odd against even runs; 0 = off")
		server  = flag.String("server", "", "path of the prefserve binary (run.sh builds it)")
		out     = flag.String("out", "", "directory for traces and the repeat report (run.sh passes benchmark/out)")
	)
	flag.Parse()
	cfg := config{
		seed:      *seed,
		window:    time.Duration(*seconds) * time.Second,
		scale:     fullScale,
		serverBin: *server,
		outDir:    *out,
	}

	// A signal must not leave a prefserve behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllServers()
		os.Exit(130)
	}()

	if err := run(cfg, *wlName, *trace != 0, *repeat); err != nil {
		killAllServers()
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a reply disagreed with the oracle or an operation failed")

func run(cfg config, wlName string, traced bool, repeat int) error {
	if cfg.serverBin == "" || cfg.outDir == "" {
		return errors.New("-server and -out are required; start the benchmark with benchmark/run.sh")
	}
	if cfg.window <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if repeat > 0 {
		return runRepeat(cfg, repeat)
	}
	if wlName == "" {
		return runSuite(cfg)
	}
	wl, ok := findWorkload(wlName)
	if !ok {
		return fmt.Errorf("unknown workload %q", wlName)
	}
	r, err := runOne(cfg, wl, traced)
	if err != nil {
		return err
	}
	defs := defsFor(traced)
	for _, n := range r.Notes {
		fmt.Fprintln(os.Stderr, n)
	}
	r.writeTable(os.Stderr, defs)
	if err := r.writeJSONLine(os.Stdout, defs); err != nil {
		return err
	}
	if !r.Correct || r.Failed > 0 {
		return errIncorrect
	}
	return nil
}

// defsFor is the metric list a mode reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// runOne runs one workload in one mode and checks that every declared
// metric of that mode was measured.
func runOne(cfg config, wl workload, traced bool) (*result, error) {
	var r *result
	var err error
	switch {
	case wl.http && !traced:
		r, err = runHTTPMeasured(cfg, wl)
	case wl.http && traced:
		r, err = runHTTPTraced(cfg, wl)
	case !traced:
		r, err = runMixedMeasured(cfg, wl)
	default:
		r, err = runMixedTraced(cfg, wl)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if err := r.complete(defsFor(traced)); err != nil {
		return nil, err
	}
	return r, nil
}

// runSuite runs the four workloads one after another, measured then
// traced, and prints every metric by name and unit.
func runSuite(cfg config) error {
	failed := false
	for _, traced := range []bool{false, true} {
		defs := defsFor(traced)
		for _, wl := range workloads {
			r, err := runOne(cfg, wl, traced)
			if err != nil {
				return err
			}
			for _, n := range r.Notes {
				fmt.Fprintln(os.Stderr, n)
			}
			r.writeTable(os.Stdout, defs)
			failed = failed || !r.Correct || r.Failed > 0
		}
	}
	if failed {
		return errIncorrect
	}
	return nil
}

func (c config) tracePath(wl workload) string {
	return filepath.Join(c.outDir, "trace-"+wl.name+".json")
}
