package design

import (
	"fmt"

	"pref/internal/partition"
	"pref/internal/stats"
)

// Estimate is the predicted post-partitioning footprint of a configuration
// (Appendix A): per-table sizes and the database total.
type Estimate struct {
	PerTable map[string]float64
	Total    float64
	// OriginalTotal is Σ|T| over the estimated tables, so
	// DR = Total/OriginalTotal − 1.
	OriginalTotal int
}

// DR returns the estimated data-redundancy of the configuration.
func (e *Estimate) DR() float64 {
	if e.OriginalTotal == 0 {
		return 0
	}
	return e.Total/float64(e.OriginalTotal) - 1
}

// jointRedundancyFactor computes a table's expected copies per tuple from
// both sides' join-key histograms:
//
//	[ Σ_{v∈Ve} E_{f(v)·m, n}[X]·g(v) + (|Tj| − Σ_{v∈Ve} g(v)) ] / |Tj|
//
// where f(v)/g(v) are the key frequencies in the referenced/referencing
// table and m is the referenced table's own chain inflation: a referencing
// tuple expects as many copies as distinct partitions its f·m effective
// partner occurrences hit — applying the (concave) expected-copies
// transform to the scaled frequency saturates per tuple at n, which a
// plain product of per-edge factors does not. Unmatched tuples are stored
// once.
func jointRedundancyFactor(refHist, ringHist *stats.Histogram, n int, refInflation float64) float64 {
	if ringHist.Rows == 0 {
		return 1
	}
	if refInflation < 1 {
		refInflation = 1
	}
	expected := 0.0
	matched := 0.0
	refHist.Join(ringHist, func(f, g int) {
		expected += stats.ExpectedCopiesReal(float64(f)*refInflation, n) * float64(g)
		matched += float64(g)
	})
	// Both histograms sample the same key universe (same rate and salt),
	// so the sampled sums extrapolate by 1/rate.
	expected /= ringHist.Rate
	matched /= ringHist.Rate
	orphans := float64(ringHist.Rows) - matched
	if orphans < 0 {
		orphans = 0
	}
	r := (expected + orphans) / float64(ringHist.Rows)
	if r < 1 {
		r = 1
	}
	if r > float64(n) {
		r = float64(n)
	}
	return r
}

// EstimateConfig predicts |T^P| for every table of a configuration using
// the redundancy factors of Appendix A: a PREF table's size is its original
// cardinality times the product of the redundancy factors of all edges on
// its partitioning-predicate path down to the (redundancy-free) seed table.
//
// Two refinements tighten the paper's literal r(e) formula
// (Σ_{v∈Ve} E_{f(v),n}[X] / |Tj|, which internal/bench's ablation-estimator
// experiment evaluates for comparison):
//
//   - Structural: when the referenced table is hash-partitioned on (a
//     subset of) the edge's referenced columns, all partitioning partners
//     of a referencing tuple are co-located by construction, so r(e) = 1 —
//     this is what makes the seed's heaviest edge free (Section 3.1 picks
//     the seed's partitioning attribute that way on purpose).
//   - Joint: the expected copies of each key are weighted by the key's
//     multiplicity on the *referencing* side, and referencing tuples
//     without any partner contribute exactly one stored copy (they are
//     placed round-robin, Definition 1 condition 2). The literal formula
//     over-multiplies along deep chains — e.g. TPC-DS dimension chains —
//     because clamping each factor at 1 hides the unmatched fraction.
func EstimateConfig(cfg *partition.Config, sizes Sizes, hp *HistProvider) (*Estimate, error) {
	est := &Estimate{PerTable: make(map[string]float64, len(cfg.Schemes))}
	// inflation[T] is the expected number of stored copies per original
	// tuple of T (≥ 1; 1 for seed-side tables).
	inflation := make(map[string]float64)

	var inflate func(tbl string) (float64, error)
	inflate = func(tbl string) (float64, error) {
		if f, ok := inflation[tbl]; ok {
			return f, nil
		}
		ts := cfg.Scheme(tbl)
		if ts == nil || ts.Method != partition.Pref {
			inflation[tbl] = 1
			return 1, nil
		}
		parentScheme := cfg.Scheme(ts.RefTable)
		if parentScheme == nil {
			return 0, fmt.Errorf("design: table %s references unconfigured table %s", tbl, ts.RefTable)
		}
		var f float64
		if parentScheme.Method == partition.Hash && subsetOf(parentScheme.Cols, ts.Pred.ReferencedCols) {
			// Equal referenced-key ⇒ equal hash key ⇒ same partition.
			f = 1
		} else {
			parentInfl, err := inflate(ts.RefTable)
			if err != nil {
				return 0, err
			}
			refHist, err := hp.Hist(ts.RefTable, ts.Pred.ReferencedCols)
			if err != nil {
				return 0, err
			}
			ringHist, err := hp.Hist(tbl, ts.Pred.ReferencingCols)
			if err != nil {
				return 0, err
			}
			f = jointRedundancyFactor(refHist, ringHist, cfg.NumPartitions, parentInfl)
		}
		inflation[tbl] = f
		return f, nil
	}

	// Sorted, so Total sums in the same order on every run.
	for _, name := range cfg.Names() {
		ts := cfg.Schemes[name]
		orig, ok := sizes[name]
		if !ok {
			return nil, fmt.Errorf("design: no size for table %s", name)
		}
		est.OriginalTotal += orig
		switch ts.Method {
		case partition.Replicated:
			est.PerTable[name] = float64(orig * cfg.NumPartitions)
		case partition.Pref:
			f, err := inflate(name)
			if err != nil {
				return nil, err
			}
			est.PerTable[name] = float64(orig) * f
		default:
			est.PerTable[name] = float64(orig)
		}
		est.Total += est.PerTable[name]
	}
	return est, nil
}
