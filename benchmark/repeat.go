package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// exactMetrics come from engine counters over a fixed query sequence and
// must repeat to the last bit for one seed.
var exactMetrics = map[string]bool{
	"shipped_mb_per_query": true,
	"sim_ms_per_query":     true,
	"stored_ratio":         true,
}

// repeatCell is one metric of one workload across the runs of a repeat.
type repeatCell struct {
	Workload   string    `json:"workload"`
	Metric     string    `json:"metric"`
	Unit       string    `json:"unit"`
	Bound      float64   `json:"bound"`
	Values     []float64 `json:"values"`
	MedianOdd  float64   `json:"median_odd"`
	MedianEven float64   `json:"median_even"`
	// Diff is the distance between the two medians as a share of the
	// smaller one; for an exact metric, the spread over all runs.
	Diff   float64 `json:"diff"`
	Breach bool    `json:"breach"`
}

// compareRuns splits values into odd and even runs (1st, 3rd, … against
// 2nd, 4th, …) — two interleaved sets of the same code, so slow drift of
// the host lands on both — and checks their medians against the bound.
func compareRuns(c *repeatCell) {
	var odd, even []float64
	for i, v := range c.Values {
		if i%2 == 0 {
			odd = append(odd, v)
		} else {
			even = append(even, v)
		}
	}
	c.MedianOdd, c.MedianEven = median(odd), median(even)
	if exactMetrics[c.Metric] {
		for _, v := range c.Values {
			if v != c.Values[0] {
				c.Diff = math.Abs(v-c.Values[0]) / math.Abs(c.Values[0])
				c.Breach = true
			}
		}
		return
	}
	lo := math.Min(c.MedianOdd, c.MedianEven)
	c.Diff = math.Abs(c.MedianOdd-c.MedianEven) / lo
	c.Breach = !(c.Diff <= c.Bound)
}

// runRepeat runs the measured suite n times back to back with one seed and
// reports whether two sets of runs of the same code agree within the
// benchmark's own bounds.
func runRepeat(cfg config, n int) error {
	if n < 2 {
		return fmt.Errorf("--repeat needs at least 2 runs")
	}
	cells := map[string]*repeatCell{}
	var order []string
	incorrect := false
	for run := 1; run <= n; run++ {
		for _, wl := range workloads {
			r, err := runOne(cfg, wl, false)
			if err != nil {
				return err
			}
			incorrect = incorrect || !r.Correct || r.Failed > 0
			for _, d := range endToEnd {
				key := wl.name + "/" + d.Name
				c := cells[key]
				if c == nil {
					c = &repeatCell{Workload: wl.name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound}
					cells[key] = c
					order = append(order, key)
				}
				c.Values = append(c.Values, r.Metrics[d.Name])
			}
			fmt.Fprintf(os.Stderr, "repeat %d/%d: %s done (failed %d)\n", run, n, wl.name, r.Failed)
		}
	}

	breaches := 0
	report := make([]*repeatCell, 0, len(order))
	fmt.Printf("%-12s %-22s %14s %14s %8s %6s\n", "workload", "metric", "median odd", "median even", "diff", "bound")
	for _, key := range order {
		c := cells[key]
		compareRuns(c)
		report = append(report, c)
		mark := ""
		if c.Breach {
			mark = "  BREACH"
			breaches++
		}
		bound := fmt.Sprintf("%.2f", c.Bound)
		if exactMetrics[c.Metric] {
			bound = "exact"
		}
		fmt.Printf("%-12s %-22s %14.4f %14.4f %7.2f%% %6s%s\n", c.Workload, c.Metric, c.MedianOdd, c.MedianEven, 100*c.Diff, bound, mark)
	}
	b, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "repeat.json"), b, 0o644); err != nil {
		return err
	}
	if incorrect {
		return errIncorrect
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric × workload pairs disagree between odd and even runs by more than their bound", breaches)
	}
	return nil
}
