// Fixture for the partownership analyzer: per-partition state (a
// partition→rows container, or the named per-node fields) may only be
// indexed by the scope's own partition-id parameter; everything else needs
// a // lint:ship-boundary declaration.
package engine

type row []int64

type executor struct {
	execDst []int
	cells   []int64
}

func ownSlot(p int, parts [][]row) row {
	rows := parts[p] // own partition: fine
	return rows[0]   // []row is one partition's data, not part state
}

func neighbor(p int, parts [][]row) []row {
	return parts[p+1] // want "neighbor indexes per-partition state parts"
}

func otherIndex(p, q int, parts [][]row) []row {
	return parts[q] // want "otherIndex indexes per-partition state parts"
}

func coordinatorSlot(parts [][]row) []row {
	return parts[0] // want "coordinatorSlot indexes per-partition state parts"
}

func sweep(parts [][]row) int {
	n := 0
	for _, rows := range parts { // want "sweep sweeps all partitions of parts"
		n += len(rows)
	}
	return n
}

func namedField(ex *executor, p int) int64 {
	ex.execDst[p] = p    // own slot of a named per-node field: fine
	return ex.cells[p+1] // want "namedField indexes per-partition state ex.cells"
}

func closures(parts [][]row) {
	perPart := func(p int) []row {
		return parts[p] // the closure's own sole int param is its partition id
	}
	bad := func(p int) []row {
		return parts[p-1] // want "closures (closure) indexes per-partition state parts"
	}
	_, _ = perPart, bad
}

// gatherAll is the sanctioned shape: a declared exchange may sweep and
// cross-index freely, closures included.
//
// lint:ship-boundary fixture exchange: collects every partition's rows.
func gatherAll(parts [][]row) []row {
	var out []row
	for _, rows := range parts {
		out = append(out, rows...)
	}
	return append(out, parts[0]...)
}

func ignored(parts [][]row) []row {
	//lint:ignore partownership fixture demonstrates the suppression grammar
	return parts[0]
}
