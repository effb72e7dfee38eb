package main

import (
	"math"
	"strings"
	"testing"

	"pref/internal/testutil"
)

// TestRunRejectsSampleRateOutOfRange: a -sample outside [0, 1] is an error
// (main exits 1 on it) for both algorithms, not a silent exact design.
func TestRunRejectsSampleRateOutOfRange(t *testing.T) {
	for _, algo := range []string{"sd", "wd"} {
		for _, rate := range []float64{7, -0.5} {
			var err error
			out := testutil.CaptureStdout(t, func() error {
				err = run("tpch", algo, 4, 0.002, 1, 42, rate, false, false, "")
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "SampleRate") {
				t.Errorf("-algo %s -sample %v: err = %v, want a SampleRate error\n%s", algo, rate, err, out)
			}
			if strings.Contains(out, "data-redundancy") {
				t.Errorf("-algo %s -sample %v printed a design:\n%s", algo, rate, out)
			}
		}
	}
}

// TestRunPrintsDesign: an in-range rate designs and prints the estimate,
// and SD applies the design and prints the actual redundancy too.
func TestRunPrintsDesign(t *testing.T) {
	for _, tc := range []struct {
		algo string
		rate float64
		want []string
	}{
		{"sd", 1, []string{"schema-driven design", "estimated data-redundancy DR", "actual data-redundancy DR"}},
		{"sd", 0.5, []string{"schema-driven design", "estimated data-redundancy DR"}},
		{"wd", 1, []string{"workload-driven design", "estimated global data-redundancy DR"}},
	} {
		out := testutil.CaptureStdout(t, func() error {
			return run("tpch", tc.algo, 4, 0.002, 1, 42, tc.rate, false, false, "")
		})
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("-algo %s -sample %v: output lacks %q:\n%s", tc.algo, tc.rate, w, out)
			}
		}
	}
}

// TestRunRejectsBadScale: an -sf or -dssf that is not a finite number
// above 0 is an error (main exits 1 on it) whichever benchmark is asked
// for, and nothing is designed.
func TestRunRejectsBadScale(t *testing.T) {
	for _, bad := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		for _, tc := range []struct {
			flag     string
			sf, dssf float64
		}{{"-sf", bad, 1}, {"-dssf", 0.002, bad}} {
			var err error
			out := testutil.CaptureStdout(t, func() error {
				err = run("tpch", "sd", 4, tc.sf, tc.dssf, 42, 1, false, false, "")
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("%s %v: err = %v, want a %s error", tc.flag, bad, err, tc.flag)
			}
			if out != "" {
				t.Errorf("%s %v printed:\n%s", tc.flag, bad, out)
			}
		}
	}
}
