package batch

import (
	"fmt"
	"testing"
	"time"
)

// bloomKeys returns n distinct pseudo-random keys: even ones when present,
// odd ones otherwise, so no absent key can equal a present one.
func bloomKeys(n int, present bool) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		k := int64(uint64(i+1)*fib64) &^ 1
		if !present {
			k |= 1
		}
		keys[i] = k
	}
	return keys
}

// TestBloomFalsePositiveRate holds the layout to its documented rate: at
// exactly 10 bits per key (16 384 words for 104 857 keys) at most 2.5 % of
// 10⁶ absent keys, probed through Select as the operator does, may pass.
// Keys and filter are deterministic, so the rate is one fixed number.
func TestBloomFalsePositiveRate(t *testing.T) {
	const n, absent = 16384 * 64 / bloomBitsPerKey, 1_000_000
	in := bloomKeys(n, true)
	f := BloomOf(in)
	if len(f.words) != 16384 {
		t.Fatalf("%d keys sized to %d words, want 16384", n, len(f.words))
	}
	fs := Blooms{f}
	for _, k := range in {
		if !fs.Has(k) {
			t.Fatalf("false negative on key %d", k)
		}
	}
	passed := 0
	sel := make([]int32, 0, Size)
	for _, b := range Chunks([][]int64{bloomKeys(absent, false)}) {
		passed += len(fs.Select(sel[:0], b, 0))
	}
	rate := float64(passed) / absent
	if rate > 0.025 {
		t.Fatalf("false-positive rate %.4f at 10 bits per key, want ≤ 0.025", rate)
	}
	t.Logf("false-positive rate at 10 bits per key: %.4f", rate)
}

// TestBloomSelectAndUnion covers the probe over a selection vector and the
// union of several filters: a row passes when any filter may hold its key,
// and an empty filter holds nothing.
func TestBloomSelectAndUnion(t *testing.T) {
	a, b := NewBloom(2), NewBloom(2)
	a.Add(10)
	b.Add(20)
	fs := Blooms{a, NewBloom(0), b}
	col := []int64{10, 11, 20, 21, 10}
	bt := View([][]int64{col}).WithSel([]int32{0, 2, 3})
	got := fs.Select(nil, bt, 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Select over sel [0 2 3] kept %v, want [0 2]", got)
	}
	if (Blooms{NewBloom(0)}).Has(10) {
		t.Fatal("an empty filter must hold nothing")
	}
	if f := NewBloom(0); f.Bytes() != 0 {
		t.Fatalf("an empty filter ships %d bytes, want 0", f.Bytes())
	}
}

// BenchmarkBloom prices the runtime-filter kernel: building a filter over a
// source partition's keys, and probing a batch stream of which one row in
// eight is present. It reports build ns/key, probe ns/row and the measured
// false-positive rate at the sizes BloomOf picks.
func BenchmarkBloom(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		keys := bloomKeys(n, true)
		probe := append(bloomKeys(n/8, true), bloomKeys(n-n/8, false)...)
		stream := Chunks([][]int64{probe})
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			var build, probe time.Duration
			sel := make([]int32, 0, Size)
			kept := 0
			for i := 0; i < b.N; i++ {
				start := time.Now()
				fs := Blooms{BloomOf(keys)}
				built := time.Now()
				kept = 0
				for _, bt := range stream {
					kept += len(fs.Select(sel[:0], bt, 0))
				}
				probe += time.Since(built)
				build += built.Sub(start)
			}
			perOp := float64(b.N) * float64(n)
			b.ReportMetric(float64(build.Nanoseconds())/perOp, "build-ns/key")
			b.ReportMetric(float64(probe.Nanoseconds())/perOp, "probe-ns/row")
			b.ReportMetric(float64(kept-n/8)/float64(n-n/8), "fp-rate")
		})
	}
}
