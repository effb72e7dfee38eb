package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// TenantConfig declares one tenant of a server: its fair-share weight
// under contention and its sustained admission rate.
type TenantConfig struct {
	// Name identifies the tenant on Submit.
	Name string
	// Weight is the tenant's share of the serving slots under contention
	// (weighted-fair admission; default 1). A weight-4 tenant is granted
	// slots four times as often as a weight-1 tenant when both have
	// queries queued.
	Weight float64
	// Rate is the sustained admission rate in queries/second enforced by
	// a token bucket (0 = unlimited).
	Rate float64
	// Burst is the token-bucket depth: how many queries may arrive
	// back-to-back before the rate limit bites (default max(1, Rate)).
	Burst float64
}

// validateTenants rejects what no default repairs: a repeated name, whose
// later entry would silently replace the earlier lane; a NaN or ±Inf
// Weight, Rate or Burst; and a rate-limited tenant whose Burst is in (0, 1),
// whose bucket would never hold the one token a submission takes.
func validateTenants(tcs []TenantConfig) error {
	seen := make(map[string]bool, len(tcs))
	for _, tc := range tcs {
		if seen[tc.Name] {
			return fmt.Errorf("serve: duplicate tenant %q", tc.Name)
		}
		seen[tc.Name] = true
		for _, v := range []float64{tc.Weight, tc.Rate, tc.Burst} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("serve: tenant %q: Weight %v, Rate %v, Burst %v: each must be finite",
					tc.Name, tc.Weight, tc.Rate, tc.Burst)
			}
		}
		if tc.Rate > 0 && tc.Burst > 0 && tc.Burst < 1 {
			return fmt.Errorf("serve: tenant %q: Burst %v is below one query, so no submission is ever admitted", tc.Name, tc.Burst)
		}
	}
	return nil
}

func (tc TenantConfig) withDefaults() TenantConfig {
	if tc.Weight <= 0 {
		tc.Weight = 1
	}
	if tc.Burst <= 0 {
		tc.Burst = tc.Rate
		if tc.Burst < 1 {
			tc.Burst = 1
		}
	}
	return tc
}

// tokenBucket enforces one tenant's sustained admission rate. Tokens
// refill continuously at rate/sec up to burst; a take consumes one.
// Callers hold the owning admitter's mutex.
type tokenBucket struct {
	rate   float64 // tokens per second (0 = unlimited)
	burst  float64
	tokens float64
	last   time.Time
}

// take attempts to consume one token at the given instant. On refusal it
// returns the wait until the next token accrues — the Retry-After hint.
func (b *tokenBucket) take(now time.Time) (bool, time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	} else {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// waiter is one queued acquisition. granted is closed (under the admitter
// mutex) when a released slot is handed to it; a waiter that gives up
// removes itself from the queue under the same mutex, so grant and
// abandonment cannot race.
type waiter struct {
	granted chan struct{}
	cost    float64
}

// tenantLane is one tenant's admission state: its token bucket, its FIFO
// of waiting queries, and its weighted virtual time.
type tenantLane struct {
	cfg    TenantConfig
	bucket tokenBucket
	q      []*waiter
	// vt is the tenant's virtual time: admitted cost divided by weight.
	// The scheduler always grants the next slot to the waiting tenant
	// with the smallest vt, which is weighted-fair queuing: a tenant's
	// long-run slot share is proportional to its weight regardless of
	// how aggressively others submit.
	vt float64
	// active counts the tenant's running plus queued queries; a tenant
	// re-entering from idle has its vt caught up to the busiest floor so
	// accumulated idle credit cannot starve everyone else.
	active int
}

// admitter is the server's weighted-fair slot scheduler (admission ladder
// rung 3). It bounds concurrently served queries and, under contention,
// hands freed slots to waiting tenants in weighted-fair order rather than
// FIFO. It is the only bounded queue on the path: the cluster layer below
// it tracks node health and admits every query a live cluster is handed.
type admitter struct {
	mu      sync.Mutex
	slots   int
	used    int
	queued  int
	timeout time.Duration
	lanes   map[string]*tenantLane
}

func newAdmitter(slots int, timeout time.Duration, tenants []TenantConfig) *admitter {
	a := &admitter{slots: slots, timeout: timeout, lanes: make(map[string]*tenantLane)}
	for _, tc := range tenants {
		tc = tc.withDefaults()
		a.lanes[tc.Name] = &tenantLane{
			cfg:    tc,
			bucket: tokenBucket{rate: tc.Rate, burst: tc.Burst},
		}
	}
	return a
}

// lane returns the tenant's lane (nil for unknown tenants).
func (a *admitter) lane(tenant string) *tenantLane {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lanes[tenant]
}

// takeToken runs the tenant's token bucket (rung 1).
func (a *admitter) takeToken(tenant string, now time.Time) (bool, time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ln := a.lanes[tenant]
	if ln == nil {
		return false, 0
	}
	return ln.bucket.take(now)
}

// load reports the serving pressure: (running + queued) / slots. Values
// above 1 mean the queue is growing; the shedder prices admission off it.
func (a *admitter) load() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.slots <= 0 {
		return 0
	}
	return float64(a.used+a.queued) / float64(a.slots)
}

// minActiveVT returns the smallest virtual time among tenants with work
// in flight, the floor idle tenants are caught up to.
func (a *admitter) minActiveVT() float64 {
	min, any := 0.0, false
	for _, ln := range a.lanes {
		if ln.active > 0 && (!any || ln.vt < min) {
			min, any = ln.vt, true
		}
	}
	return min
}

// acquire obtains one serving slot for the tenant, waiting in the
// weighted-fair queue up to the queue timeout and the caller's context.
// cost is the priced cost charged against the tenant's virtual time. The
// returned release must be called exactly once.
func (a *admitter) acquire(ctx context.Context, tenant string, cost float64) (func(), error) {
	if cost <= 0 {
		cost = 1
	}
	a.mu.Lock()
	ln := a.lanes[tenant]
	if ln == nil {
		a.mu.Unlock()
		return nil, ErrUnknownTenant
	}
	if ln.active == 0 {
		if floor := a.minActiveVT(); ln.vt < floor {
			ln.vt = floor
		}
	}
	ln.active++
	if a.slots <= 0 || a.used < a.slots {
		a.used++
		ln.vt += cost / ln.cfg.Weight
		a.mu.Unlock()
		return a.releaseFunc(tenant), nil
	}
	w := &waiter{granted: make(chan struct{}), cost: cost}
	ln.q = append(ln.q, w)
	a.queued++
	a.mu.Unlock()

	var timeoutC <-chan time.Time
	if a.timeout > 0 {
		t := time.NewTimer(a.timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case <-w.granted:
		return a.releaseFunc(tenant), nil
	case <-ctx.Done():
		return a.abandon(tenant, w, ctx.Err())
	case <-timeoutC:
		return a.abandon(tenant, w, ErrAdmissionTimeout)
	}
}

// abandon withdraws a waiter that gave up (context done or queue
// timeout). If a grant raced in before the withdrawal took the lock, the
// waiter owns a slot after all and must hand it back.
func (a *admitter) abandon(tenant string, w *waiter, cause error) (func(), error) {
	a.mu.Lock()
	ln := a.lanes[tenant]
	for i, q := range ln.q {
		if q == w {
			ln.q = append(ln.q[:i:i], ln.q[i+1:]...)
			a.queued--
			ln.active--
			a.mu.Unlock()
			return nil, cause
		}
	}
	a.mu.Unlock()
	// Granted concurrently: the slot is ours; give it straight back.
	a.releaseFunc(tenant)()
	return nil, cause
}

// releaseFunc returns the once-only release of one held slot.
func (a *admitter) releaseFunc(tenant string) func() {
	var once sync.Once
	return func() { once.Do(func() { a.release(tenant) }) }
}

// release frees one slot and hands it to the waiting tenant with the
// smallest virtual time (FIFO within the tenant). Lane iteration
// tie-breaks deterministically by name so tests can pin the grant order.
func (a *admitter) release(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ln := a.lanes[tenant]; ln != nil && ln.active > 0 {
		ln.active--
	}
	var next *tenantLane
	for _, ln := range a.lanes {
		if len(ln.q) == 0 {
			continue
		}
		if next == nil || ln.vt < next.vt || (ln.vt == next.vt && ln.cfg.Name < next.cfg.Name) {
			next = ln
		}
	}
	if next == nil {
		a.used--
		return
	}
	w := next.q[0]
	next.q = next.q[1:]
	a.queued--
	next.vt += w.cost / next.cfg.Weight
	close(w.granted) // slot transfers: used stays constant
}
