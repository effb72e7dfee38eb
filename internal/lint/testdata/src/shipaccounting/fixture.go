// Fixture for the shipaccounting analyzer: the ship counters have one
// writer, any function charging the meter is a declared ship boundary, and
// a declared boundary that scatters rows meters them.
package engine

import "sync/atomic"

type row []int64

type traceOp struct {
	rowsShipped  atomic.Int64
	bytesShipped atomic.Int64
}

// AddShip is the meter: the only legal writer of the ship counters.
func (t *traceOp) AddShip(src, rows, width int) {
	t.rowsShipped.Add(int64(rows))
	t.bytesShipped.Add(int64(rows) * int64(width) * 8)
}

// shipped only reads the counters: loads stay legal in snapshot code.
func (t *traceOp) shipped() int64 {
	return t.rowsShipped.Load()
}

type executor struct {
	top *traceOp
}

func (ex *executor) atomicLeak(rows int) {
	ex.top.rowsShipped.Add(int64(rows)) // want "atomicLeak atomically writes ship counter rowsShipped"
}

func (ex *executor) unmarked(rows, width int) { // want "unmarked moves rows across partitions but is not declared"
	ex.top.AddShip(0, rows, width)
}

// metered is the sanctioned shape: a declared exchange charging the meter
// for the rows it moves.
//
// lint:ship-boundary fixture exchange: meters every boundary crossing.
func (ex *executor) metered(parts [][]row, dst int, r row, width int) {
	parts[dst] = append(parts[dst], r)
	ex.top.AddShip(dst, 1, width)
}

// coordinator is declared and writes only a fixed slot: not a scatter, so
// nothing to meter.
//
// lint:ship-boundary fixture gather: drains into the coordinator slot.
func (ex *executor) coordinator(parts [][]row, r row) {
	parts[0] = append(parts[0], r)
}

// silentScatter is declared but moves rows off the books.
//
// lint:ship-boundary fixture exchange that forgets the meter.
func (ex *executor) silentScatter(parts [][]row, dst int, r row) {
	parts[dst] = append(parts[dst], r) // want "silentScatter scatters rows across partitions of parts without metering"
}
