package main

import (
	"context"
	"fmt"
	"strconv"

	"pref/internal/engine"
	"pref/internal/partition"
	"pref/internal/plan"
	"pref/internal/table"
	"pref/internal/tpch"
	"pref/internal/value"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// digest summarises one query result without keeping it: the row count and
// the sum of a 64-bit hash of every NDJSON row line. Addition commutes, so
// the digest does not depend on the order partitions delivered their rows,
// and a reply can be checked while it streams past.
type digest struct {
	Rows int
	Sum  uint64
}

// addLine folds one row line (without its newline) into the digest.
func (d *digest) addLine(line []byte) {
	h := uint64(fnvOffset)
	for _, b := range line {
		h = (h ^ uint64(b)) * fnvPrime
	}
	d.Rows++
	d.Sum += h
}

// appendRowLine renders a tuple exactly as prefserve's NDJSON encoder does
// (json.Encoder on []int64: "[1,2,3]"), so in-process results and HTTP
// replies share one digest.
func appendRowLine(dst []byte, row value.Tuple) []byte {
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return append(dst, ']')
}

func digestRows(rows []value.Tuple) digest {
	var d digest
	var buf []byte
	for _, r := range rows {
		buf = appendRowLine(buf[:0], r)
		d.addLine(buf)
	}
	return d
}

// oracle is the single-node reference: the same logical plans over a
// one-partition copy of the data, where no rewrite rule, exchange or PREF
// duplicate can change a result.
type oracle struct {
	t   *tpch.TPCH
	cfg *partition.Config
	pdb *table.PartitionedDatabase
}

func newOracle(t *tpch.TPCH) (*oracle, error) {
	cfg := partition.NewConfig(1)
	for _, tbl := range t.DB.Schema.Tables() {
		cfg.SetHash(tbl.Name, tbl.PK...)
	}
	pdb, err := partition.Apply(t.DB, cfg)
	if err != nil {
		return nil, fmt.Errorf("oracle: partition: %w", err)
	}
	return &oracle{t: t, cfg: cfg, pdb: pdb}, nil
}

// expect executes one query on the single-node database at its current
// epoch.
func (o *oracle) expect(query string) (digest, error) {
	rw, err := plan.Rewrite(o.t.Query(query), o.pdb.Schema, o.cfg, plan.Options{})
	if err != nil {
		return digest{}, fmt.Errorf("oracle: rewrite %s: %w", query, err)
	}
	res, err := engine.ExecuteCtx(context.Background(), rw, o.pdb, engine.ExecOptions{})
	if err != nil {
		return digest{}, fmt.Errorf("oracle: execute %s: %w", query, err)
	}
	return digestRows(res.Rows), nil
}

// expectAll runs every query of the mix once.
func (o *oracle) expectAll(mix []string) (map[string]digest, error) {
	out := make(map[string]digest, len(mix))
	for _, q := range mix {
		d, err := o.expect(q)
		if err != nil {
			return nil, err
		}
		out[q] = d
	}
	return out, nil
}
