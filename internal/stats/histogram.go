package stats

import (
	"fmt"

	"pref/internal/table"
	"pref/internal/value"
)

// Histogram records the frequency of each distinct key of one or more
// columns of a table. Sampled histograms use *universe sampling*: a
// rate-fraction of the key space is selected by a deterministic hash, and
// the frequencies of selected keys are exact. Because the selection
// depends only on the key bytes (plus a salt), histograms of the two sides
// of a join predicate sample a consistent key universe — the property the
// joint redundancy estimator needs.
type Histogram struct {
	// Freq maps each sampled key to its exact frequency.
	Freq map[value.Key]int
	// Keys lists Freq's keys in the order their first row was read, and
	// Counts their frequencies. Float sums over the histogram iterate these,
	// not the map, so their summation order — and every estimate built on
	// them — repeats from run to run.
	Keys   []value.Key
	Counts []int
	// Rows is the (estimated) number of rows the histogram describes.
	Rows int
	// Rate is the key-universe sampling rate (1 = all keys).
	Rate float64
}

// BuildHistogram computes the exact frequency histogram of the given
// columns of a table.
func BuildHistogram(d *table.Data, cols ...string) (*Histogram, error) {
	return BuildSampledHistogram(d, 1.0, 0, cols...)
}

// BuildSampledHistogram computes a universe-sampled histogram with the
// given rate in (0, 1]. Rate 1 yields the exact histogram. Lower rates
// shrink the runtime effort (fewer keys tracked) at the cost of
// estimation noise — the trade-off Figure 13 studies (noisier on skewed
// TPC-DS than uniform TPC-H, since a few hot keys carry most of the
// redundancy mass).
func BuildSampledHistogram(d *table.Data, rate float64, seed int64, cols ...string) (*Histogram, error) {
	if rate <= 0 || rate > 1 {
		return nil, fmt.Errorf("stats: sampling rate %v out of (0,1]", rate)
	}
	idx, err := d.Meta.ColIndexes(cols)
	if err != nil {
		return nil, err
	}
	h := &Histogram{Freq: make(map[value.Key]int), Rate: rate}
	if rate == 1 {
		for _, row := range d.Rows {
			h.count(value.MakeKey(row, idx))
		}
		h.Rows = len(d.Rows)
		h.fillCounts()
		return h, nil
	}
	threshold := uint64(rate * float64(^uint64(0)))
	salt := uint64(seed)*0x9e3779b97f4a7c15 + 0x85ebca6b
	sampledRows := 0
	for _, row := range d.Rows {
		k := value.MakeKey(row, idx)
		if mix(k.Hash(), salt) <= threshold {
			h.count(k)
			sampledRows++
		}
	}
	h.Rows = int(float64(sampledRows)/rate + 0.5)
	h.fillCounts()
	return h, nil
}

// count records one more row with key k: one map update, and the map's
// growth tells a first sighting.
func (h *Histogram) count(k value.Key) {
	n := len(h.Freq)
	h.Freq[k]++
	if len(h.Freq) > n {
		h.Keys = append(h.Keys, k)
	}
}

// fillCounts lays the finished frequencies out in Keys order, once per
// histogram rather than once per estimate that sums over it.
func (h *Histogram) fillCounts() {
	h.Counts = make([]int, len(h.Keys))
	for i, k := range h.Keys {
		h.Counts[i] = h.Freq[k]
	}
}

// mix folds a salt into a key hash (splitmix64 finalizer).
func mix(h, salt uint64) uint64 {
	x := h ^ salt
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Distinct reports the number of distinct sampled keys; the full-table
// distinct count is ≈ Distinct()/Rate.
func (h *Histogram) Distinct() int { return len(h.Freq) }
