package serve

import (
	"context"
	"errors"
	"io"
	"time"

	"pref/internal/engine"
	"pref/internal/plan"
	"pref/internal/value"
)

// Response is one fully materialized query result plus serving metadata.
type Response struct {
	Schema plan.Schema
	Rows   []value.Tuple
	// Epoch is the published data epoch the query was pinned to.
	Epoch int64
	// Stats carries the engine's execution counters.
	Stats engine.Stats
	// CacheHit reports whether the rewrite came from the plan cache;
	// Attempts counts executions (1 = no retries); Latency is end-to-end
	// from submission through execution.
	CacheHit bool
	Attempts int
	Latency  time.Duration
}

// Stream delivers one query result in chunks of at most ChunkRows rows.
// The rows are already materialized when the stream opens; the stream is a
// cursor over them, and the serving slot stays held until it ends — so a
// slow consumer pushes back on admission. Streams must be drained or
// closed; an abandoned stream is released when its query context dies
// (client deadline or forced drain).
type Stream struct {
	// Schema, Epoch, CacheHit, Attempts and Latency mirror Response.
	Schema   plan.Schema
	Epoch    int64
	Stats    engine.Stats
	CacheHit bool
	Attempts int
	Latency  time.Duration

	ctx       context.Context
	rows      []value.Tuple // not yet delivered
	chunkRows int
	finish    func()
}

// newStream opens a cursor over res.Rows. finish releases the serving slot
// and the query context; the stream arranges for it to run exactly once on
// every termination path.
func newStream(qctx context.Context, chunkRows int, res *engine.Result, attempts int, cacheHit bool, latency time.Duration, finish func()) *Stream {
	// Abandoned-stream safety net: when the query context dies for any
	// reason (client deadline, forced drain, or normal Close below), the
	// slot is released even if the consumer never calls Close.
	context.AfterFunc(qctx, finish)
	return &Stream{
		Schema:    res.Schema,
		Epoch:     res.Epoch,
		Stats:     res.Stats,
		CacheHit:  cacheHit,
		Attempts:  attempts,
		Latency:   latency,
		ctx:       qctx,
		rows:      res.Rows,
		chunkRows: chunkRows,
		finish:    finish,
	}
}

// Next returns the next chunk of rows. At end of stream it returns
// (nil, io.EOF) and releases the serving slot; if the query's context
// dies mid-delivery it releases the slot and returns the context's error,
// typed as a deadline error when the deadline expired. A chunk's capacity
// ends at its last row, so appending to it never overwrites the next one.
func (st *Stream) Next() ([]value.Tuple, error) {
	if len(st.rows) == 0 {
		st.finish()
		return nil, io.EOF
	}
	if err := st.ctx.Err(); err != nil {
		st.finish()
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, deadlineErr(err)
		}
		return nil, err
	}
	n := min(st.chunkRows, len(st.rows))
	chunk := st.rows[:n:n]
	st.rows = st.rows[n:]
	return chunk, nil
}

// Drain consumes the rest of the stream into a Response.
func (st *Stream) Drain() (*Response, error) {
	resp := &Response{
		Schema:   st.Schema,
		Epoch:    st.Epoch,
		Stats:    st.Stats,
		CacheHit: st.CacheHit,
		Attempts: st.Attempts,
		Latency:  st.Latency,
	}
	for {
		rows, err := st.Next()
		if err == io.EOF {
			return resp, nil
		}
		if err != nil {
			st.Close()
			return nil, err
		}
		resp.Rows = append(resp.Rows, rows...)
	}
}

// Close abandons the stream, releasing the serving slot. Safe to call
// multiple times and after Drain.
func (st *Stream) Close() { st.finish() }
