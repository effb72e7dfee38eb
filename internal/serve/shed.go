package serve

import (
	"sync"
	"time"
)

// shedder implements cost-priced load shedding (admission ladder rung 2).
// Below the load threshold every query passes. Above it, the shedder
// computes an overload fraction o in (0, 1] and admits only queries whose
// priced cost fits the shrinking allowance ewmaCost·(1−o)/o: as pressure
// rises the allowance tightens smoothly, so cheap queries keep flowing
// while expensive ones are turned away first — the opposite of FIFO
// collapse, where one expensive query at the head stalls everything
// behind it.
type shedder struct {
	mu        sync.Mutex
	threshold float64 // load above which shedding starts (Options.ShedThreshold)
	ewma      float64 // EWMA of admitted query cost, seconds
}

// shedEWMAAlpha weights new cost samples into the running mean; ~20
// samples of history keeps the allowance stable across one noisy query.
const shedEWMAAlpha = 0.05

func newShedder(threshold float64) *shedder {
	return &shedder{threshold: threshold}
}

// observe feeds the cost of a completed query into the pricing EWMA.
func (s *shedder) observe(cost time.Duration) {
	sec := cost.Seconds()
	s.mu.Lock()
	if s.ewma == 0 {
		s.ewma = sec
	} else {
		s.ewma += shedEWMAAlpha * (sec - s.ewma)
	}
	s.mu.Unlock()
}

// admit decides whether a query priced at cost may pass at the given
// load. Unknown costs (zero) are priced at the EWMA — an unpriced query
// is assumed average, so the first execution of each query is neither
// free nor penalized. On refusal it returns a load-scaled Retry-After.
func (s *shedder) admit(load float64, cost time.Duration) (bool, time.Duration) {
	if load <= s.threshold {
		return true, 0
	}
	s.mu.Lock()
	ewma := s.ewma
	s.mu.Unlock()
	if ewma == 0 {
		// Nothing has completed yet; nothing to price against.
		return true, 0
	}
	sec := cost.Seconds()
	if sec == 0 {
		sec = ewma
	}
	// Overload fraction: how far past the threshold we are, normalized so
	// o→1 as load→2·threshold and beyond.
	o := (load - s.threshold) / s.threshold
	if o > 1 {
		o = 1
	}
	allowance := ewma * (1 - o) / o
	if sec <= allowance {
		return true, 0
	}
	// Retry once roughly the excess queue depth has drained.
	retry := time.Duration((load - s.threshold) * ewma * float64(time.Second))
	if retry < 5*time.Millisecond {
		retry = 5 * time.Millisecond
	}
	if retry > 5*time.Second {
		retry = 5 * time.Second
	}
	return false, retry
}

// retryBudget bounds retry amplification across the whole server: each
// success earns a fraction of a retry token, each retry spends one. Under
// a fault storm most queries fail, the budget drains, and the server
// stops retrying — first attempts still flow, but the storm is not
// multiplied by the retry layer.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
}

// retryBudgetCap caps the stored retry tokens; retryEarn is the fraction of
// a token each success earns.
const (
	retryBudgetCap = 10
	retryEarn      = 0.1
)

func newRetryBudget() *retryBudget {
	return &retryBudget{tokens: retryBudgetCap}
}

// credit records a successful attempt, earning fractional retry tokens.
func (b *retryBudget) credit() {
	b.mu.Lock()
	b.tokens += retryEarn
	if b.tokens > retryBudgetCap {
		b.tokens = retryBudgetCap
	}
	b.mu.Unlock()
}

// spend attempts to take one retry token; refusal means the retry budget
// is exhausted and the caller must surface the failure instead of
// retrying.
func (b *retryBudget) spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
