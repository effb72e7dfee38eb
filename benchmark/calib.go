package main

import "time"

// The calibration kernel: frozen code of this package that never calls
// into the program, run before a window's clients start and after they
// have stopped. Its time is reported as host.calib_ms and scales nothing:
// it is there for a reviewer who must decide whether two runs that
// disagree ran on the same host weather (README.md, "Noise record").
const (
	calibKeys  = 32 << 10  // keys built and probed per kernel run
	calibSlots = 128 << 10 // open-addressing table size
	calibReps  = 20        // kernel runs per reading
)

var calibSink uint64

// calibrate returns the kernel's mean wall time over calibReps runs.
func calibrate() time.Duration {
	keys := make([]int64, calibKeys)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = int64(x >> 8)
	}
	slots := make([]int32, calibSlots)
	start := time.Now()
	for i := 0; i < calibReps; i++ {
		calibSink += calibKernel(keys, slots)
	}
	return time.Since(start) / calibReps
}

// calibKernel builds an open-addressing hash table over the keys and probes
// it with every key and a near miss: the inner loop of a hash join, random
// access inside about 1 MiB.
func calibKernel(keys []int64, slots []int32) uint64 {
	clear(slots)
	const mask = calibSlots - 1
	slot := func(k int64) uint64 { return (uint64(k) * 0x9E3779B97F4A7C15) >> 40 & mask }
	for i, k := range keys {
		h := slot(k)
		for slots[h] != 0 {
			h = (h + 1) & mask
		}
		slots[h] = int32(i) + 1
	}
	hits := uint64(0)
	for _, k := range keys {
		for _, probe := range [2]int64{k, k ^ 1} {
			for h := slot(probe); slots[h] != 0; h = (h + 1) & mask {
				if keys[slots[h]-1] == probe {
					hits++
					break
				}
			}
		}
	}
	return hits
}
