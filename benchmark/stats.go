package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rankOf is the nearest-rank position (1-based) of the p-th percentile
// among n samples. The epsilon keeps a product that is a whole number in
// exact arithmetic (99.9 % of 10000) from being rounded up a rank.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rankOf(p, len(sorted))-1]
}

// tailLadder lists the percentiles a report may quote for its tail.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least ten of n samples beyond it: a tail quoted from fewer is one
// or two requests, not a distribution. It returns 0 when not even the
// median qualifies.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if n > 0 && n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; the mean of the middle pair for an even count.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clockTick is Linux's USER_HZ: the unit of utime/stime in /proc/<pid>/stat.
// It is 100 on every supported architecture regardless of the kernel's HZ.
const clockTick = 100

// parseProcStat extracts utime+stime from one /proc/<pid>/stat line. The
// command name (field 2) is parenthesised and may itself contain spaces
// and parentheses, so fields are counted from the last ')'.
func parseProcStat(line string) (time.Duration, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", line)
	}
	f := strings.Fields(line[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procCPU reads the CPU time a process has consumed so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// parseProcStatusKB returns the value of one "Key:   123 kB" line of
// /proc/<pid>/status, in kB.
func parseProcStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// procMemMB reads a memory figure (VmRSS, VmHWM) of a process in MB.
func procMemMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseProcStatusKB(string(b), key)
	return float64(kb) / 1024, err
}

// selfCPU is this process's own user+system CPU time (getrusage).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
