package design

import (
	"sort"

	"pref/internal/stats"
)

// Internals the external tests read.

// JointRedundancyFactor is jointRedundancyFactor.
var JointRedundancyFactor = jointRedundancyFactor

// HistKeys lists the keys, "table(cols)", of the histograms h holds,
// sorted.
func (h *HistProvider) HistKeys() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	keys := make([]string, 0, len(h.hists))
	for k := range h.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MatchedPairs lists the (referenced, referencing) histogram pairs whose
// shared keys h holds, with those keys.
func (h *HistProvider) MatchedPairs() map[[2]*stats.Histogram]*stats.Matches {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[[2]*stats.Histogram]*stats.Matches, len(h.matches))
	for k, m := range h.matches {
		out[k] = m
	}
	return out
}

// ForgetMatches drops the pairs h has matched, keeping its histograms.
func (h *HistProvider) ForgetMatches() {
	h.mu.Lock()
	defer h.mu.Unlock()
	clear(h.matches)
}
