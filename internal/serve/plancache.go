package serve

import (
	"sync"
	"time"

	"pref/internal/plan"
)

// planCache memoizes §2.2 rewrites across submissions, keyed on the
// prepared query's name. The rewrite is pure in (query, design,
// statistics): it reads the catalog schema, the partitioning config and the
// statistics the Server gathered at start-up, never the data itself, and a
// Server serves one design for its whole lifetime — so a write-path
// publish leaves every cached plan valid, and the cache holds at most one
// entry per prepared query.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry
	hits    int64
	misses  int64
}

// planEntry is one query's rewrite, built by the first submission that
// asks for it; concurrent first submissions wait on once and share it.
type planEntry struct {
	once sync.Once
	rw   *plan.Rewritten
	err  error
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]*planEntry)}
}

// get returns the query's rewrite, building it with build on the first
// request, and whether the request was a hit.
func (c *planCache) get(query string, build func() (*plan.Rewritten, error)) (*plan.Rewritten, bool, error) {
	c.mu.Lock()
	e, hit := c.entries[query]
	if hit {
		c.hits++
	} else {
		c.misses++
		e = &planEntry{}
		c.entries[query] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.rw, e.err = build() })
	return e.rw, hit, e.err
}

// stats reports cumulative hit/miss counts and the live entry count.
func (c *planCache) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}

// costTable prices queries for the shedder: an EWMA of observed execution
// latency per prepared query.
type costTable struct {
	mu    sync.Mutex
	costs map[string]time.Duration
}

func newCostTable() *costTable {
	return &costTable{costs: make(map[string]time.Duration)}
}

// costEWMAAlpha weights a new latency sample into the per-query price.
const costEWMAAlpha = 0.3

// price returns the current priced cost (0 = never executed).
func (t *costTable) price(query string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.costs[query]
}

// observe feeds one execution latency into the query's price.
func (t *costTable) observe(query string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.costs[query]; ok {
		t.costs[query] = cur + time.Duration(costEWMAAlpha*float64(d-cur))
	} else {
		t.costs[query] = d
	}
}
