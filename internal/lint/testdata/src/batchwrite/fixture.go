// Fixture for the batchwrite analyzer: outside the batch package, a Batch's
// columns and selection vector are read-only — writes go into new batches
// (batch.Writer) or fresh selection vectors (WithSel), never through a batch
// an operator received, directly (this file) or through a local view of its
// storage (alias_write.go).
package engine

import "pref/internal/batch"

func readsAreFine(b *batch.Batch) int64 {
	s := int64(0)
	for i := 0; i < b.Len(); i++ {
		s += b.At(i, 0)
	}
	return s
}

func rebindIsFine(b *batch.Batch) *batch.Batch {
	b = batch.View(b.Cols) // rebinding the variable, not the shared arrays
	return b
}

func narrowProperly(b *batch.Batch, keep []int32) *batch.Batch {
	return b.WithSel(keep) // fresh header over shared columns: the sanctioned shape
}

func overwriteSel(b *batch.Batch, keep []int32) {
	b.Sel = keep // want "write through batch b violates batch ownership"
}

func overwriteColumn(b *batch.Batch, col []int64) {
	b.Cols[0] = col // want "write through batch b violates batch ownership"
}

func scribbleValue(b *batch.Batch) {
	b.Cols[0][0] = 42 // want "write through batch b violates batch ownership"
}

func scribbleViaAlias(bs []*batch.Batch) {
	bs[0].Cols[1][2]++ // want "write through batch bs[0] violates batch ownership"
}

func escapeMutableRef(b *batch.Batch) *[]int64 {
	return &b.Cols[0] // want "write through batch b violates batch ownership"
}

func suppressed(b *batch.Batch) {
	//lint:ignore batchwrite fixture demonstrates the suppression grammar
	b.Sel = nil
}
