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
// depends only on the key values (plus a salt), histograms of the two
// sides of a join predicate sample a consistent key universe — the
// property the joint redundancy estimator needs.
type Histogram struct {
	// Counts holds each sampled key's exact frequency, in the order the
	// key's first row was read. Float sums over the histogram iterate
	// these (Join too), not a map, so their summation order — and every
	// estimate built on them — repeats from run to run.
	Counts []int
	// Rows is the (estimated) number of rows the histogram describes.
	Rows int
	// Rate is the key-universe sampling rate (1 = all keys).
	Rate float64
	// keys numbers the distinct keys as Counts does: value.Key2s for keys
	// of at most value.Key2Cols columns, value.Keys for wider ones.
	keys keySet
	// width is the number of key columns.
	width int
}

// keySet is the distinct keys of one histogram, in first-seen order.
type keySet interface {
	// join calls fn(i, j) for every key i of the set that other, a set of
	// the same key type, holds as key j, in i order.
	join(other keySet, fn func(i, j int))
}

type keys[K comparable] struct {
	id   map[K]int
	list []K
}

func (s *keys[K]) join(other keySet, fn func(i, j int)) {
	o := other.(*keys[K])
	for i, k := range s.list {
		if j, ok := o.id[k]; ok {
			fn(i, j)
		}
	}
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
	if !(rate > 0 && rate <= 1) {
		return nil, fmt.Errorf("stats: sampling rate %v out of (0,1]", rate)
	}
	idx, err := d.Meta.ColIndexes(cols)
	if err != nil {
		return nil, err
	}
	h := &Histogram{Rate: rate, width: len(idx)}
	if len(idx) <= value.Key2Cols {
		h.keys = count(h, d.Rows, idx, seed, value.Narrow)
	} else {
		h.keys = count(h, d.Rows, idx, seed, value.Wide)
	}
	return h, nil
}

// count reads rows into h's Counts and Rows and returns their distinct
// keys. Below rate 1 a row is read when its key's hash, salted by seed,
// falls under the rate; value.HashTuple is the hash of the key's
// value.Key bytes, so the sample is the same whatever K is.
func count[K comparable](h *Histogram, rows []value.Tuple, idx []int, seed int64, kb value.Keys[K]) *keys[K] {
	var threshold, salt uint64
	if h.Rate < 1 {
		threshold = uint64(h.Rate * float64(^uint64(0)))
		salt = uint64(seed)*0x9e3779b97f4a7c15 + 0x85ebca6b
	}
	s := &keys[K]{id: make(map[K]int)}
	sampled := 0
	for _, row := range rows {
		if h.Rate < 1 && mix(value.HashTuple(row, idx), salt) > threshold {
			continue
		}
		sampled++
		k := kb.Of(row, idx)
		i, ok := s.id[k]
		if !ok {
			i = len(s.list)
			s.id[k] = i
			s.list = append(s.list, k)
			h.Counts = append(h.Counts, 0)
		}
		h.Counts[i]++
	}
	h.Rows = int(float64(sampled)/h.Rate + 0.5)
	return s
}

// Join calls fn(f, g) for every key h and other share, with its frequency
// f in h and g in other, in h's key order: the pairs the joint redundancy
// estimator sums over. Histograms of different column counts share none.
func (h *Histogram) Join(other *Histogram, fn func(f, g int)) {
	if h.width != other.width {
		return
	}
	h.keys.join(other.keys, func(i, j int) { fn(h.Counts[i], other.Counts[j]) })
}

// Matches is what Join hands a caller, kept: every key two histograms
// share, in Join's key order, with its frequencies — what the joint
// redundancy estimator sums over, so a search that prices many
// configurations over the same pair of histograms matches their keys once.
type Matches struct {
	// Freqs are the distinct frequencies f the shared keys have in the
	// first histogram, in first-seen order.
	Freqs []int
	// Pairs holds one entry per shared key, in Join's order.
	Pairs []Match
}

// Match is one key two histograms share: F indexes its frequency in the
// first histogram in Matches.Freqs; G is its frequency in the other.
type Match struct{ F, G int }

// Match returns the keys h and other share, as Join visits them.
func (h *Histogram) Match(other *Histogram) *Matches {
	m := &Matches{}
	index := map[int]int{}
	h.Join(other, func(f, g int) {
		i, ok := index[f]
		if !ok {
			i = len(m.Freqs)
			index[f] = i
			m.Freqs = append(m.Freqs, f)
		}
		m.Pairs = append(m.Pairs, Match{F: i, G: g})
	})
	return m
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
func (h *Histogram) Distinct() int { return len(h.Counts) }
