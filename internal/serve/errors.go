package serve

import (
	"errors"
	"fmt"
	"time"
)

// Sentinel errors of the serving layer's admission ladder, all matchable
// with errors.Is through the pref facade. Together with the engine's
// ErrDeadlineExceeded they form the complete rejection taxonomy: every
// query a server turns away fails with exactly one of these, never a
// silent drop.
var (
	// ErrQuotaExceeded reports a submission rejected by the tenant's
	// token-bucket quota (admission ladder rung 1).
	ErrQuotaExceeded = errors.New("serve: tenant quota exhausted")
	// ErrOverloaded reports a query shed by cost-priced overload
	// protection (rung 2): the server is saturated and the query's priced
	// cost exceeds what the current load allows. Cheap queries keep
	// flowing while expensive ones are turned away with a Retry-After
	// hint.
	ErrOverloaded = errors.New("serve: overloaded, query shed")
	// ErrAdmissionTimeout reports a query that waited longer than the
	// queue timeout for a serving slot (rung 3) — the queue's own bounded
	// wait, independent of any client deadline.
	ErrAdmissionTimeout = errors.New("serve: admission queue timeout")
	// ErrServerClosed reports a submission against a server that is
	// draining or closed.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrUnknownTenant reports a submission under a tenant the server was
	// not configured with.
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrUnknownQuery reports a submission of a query name missing from
	// the server's prepared catalog.
	ErrUnknownQuery = errors.New("serve: unknown prepared query")
)

// RejectedError is the typed admission rejection: which rung of the
// ladder rejected the query, for whom, and — for rate and load rejections
// — when a retry is worth attempting. Unwrap yields the rung's sentinel
// (ErrQuotaExceeded, ErrOverloaded, ErrAdmissionTimeout,
// ErrServerClosed), so errors.Is works against both the concrete type and
// the sentinel.
type RejectedError struct {
	// Stage is the admission-ladder rung: "quota", "shed", "queue" or
	// "closed".
	Stage string
	// Tenant and Query identify the rejected submission.
	Tenant string
	Query  string
	// Cost is the priced cost of the query (shed rejections only): the
	// observed cost of earlier executions under the server's cost model.
	Cost time.Duration
	// RetryAfter hints when the client should retry: the token bucket's
	// next-token time for quota rejections, a load-scaled backoff for
	// shed and queue rejections. Zero means "do not bother" (closed).
	RetryAfter time.Duration
	err        error
}

func (e *RejectedError) Error() string {
	msg := fmt.Sprintf("serve: query %s of tenant %s rejected at %s rung", e.Query, e.Tenant, e.Stage)
	if e.Cost > 0 {
		msg += fmt.Sprintf(" (priced at %v)", e.Cost)
	}
	if e.RetryAfter > 0 {
		msg += fmt.Sprintf(", retry after %v", e.RetryAfter)
	}
	return msg + ": " + e.err.Error()
}

// Unwrap makes errors.Is match the rung's sentinel.
func (e *RejectedError) Unwrap() error { return e.err }
