package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {153, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{1, 1}, {50, 5}, {90, 9}, {91, 10}, {100, 10}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and a closing parenthesis inside it; utime
	// 150 and stime 25 ticks are fields 14 and 15.
	line := "4242 (pref) serve x) S 1 4242 4242 0 -1 4194304 900 0 3 0 150 25 0 0 20 0 7 0 123456 1000000 5000 18446744073709551615\n"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1750 * time.Millisecond; got != want {
		t.Errorf("parseProcStat = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 abc 25 0"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) did not fail", bad)
		}
	}
}

func TestParseProcStatusKB(t *testing.T) {
	status := "Name:\tprefserve\nVmHWM:\t  204800 kB\nVmRSS:\t  199064 kB\nThreads:\t7\n"
	if got, err := parseProcStatusKB(status, "VmRSS"); err != nil || got != 199064 {
		t.Errorf("VmRSS = %d, %v; want 199064", got, err)
	}
	if got, err := parseProcStatusKB(status, "VmHWM"); err != nil || got != 204800 {
		t.Errorf("VmHWM = %d, %v; want 204800", got, err)
	}
	if _, err := parseProcStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key did not fail")
	}
	if _, err := parseProcStatusKB("VmRSS:\t12 pages\n", "VmRSS"); err == nil {
		t.Error("a line without kB did not fail")
	}
}

func TestSelfProcReadable(t *testing.T) {
	if _, err := procCPU(selfPID); err != nil {
		t.Errorf("procCPU(self): %v", err)
	}
	if mb, err := procMemMB(selfPID, "VmRSS"); err != nil || mb <= 0 {
		t.Errorf("procMemMB(self) = %g, %v", mb, err)
	}
}
