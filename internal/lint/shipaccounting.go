package lint

import (
	"go/ast"
	"strings"
)

// shipPkgs are the packages on either side of the ship meter: trace owns
// the per-node cell counters ((*Op).AddShip) and engine calls it.
var shipPkgs = map[string]bool{
	"engine": true,
	"trace":  true,
}

// shipCounterFields are the two live cell counters every cross-partition
// row movement must charge. engine.Stats is their sum, so a shipment that
// misses them is missing from every report.
var shipCounterFields = map[string]bool{
	"rowsShipped":  true,
	"bytesShipped": true,
}

// ShipAccounting enforces that rows never cross a partition boundary off
// the books:
//
//  1. The ship counters have exactly one writer: atomic writes to
//     rowsShipped/bytesShipped live only in "AddShip". Everything else
//     must go through that meter.
//  2. Any function that meters shipments is by definition moving rows
//     across partitions, so it must carry the "// lint:ship-boundary"
//     declaration.
//  3. Conversely, a declared ship boundary that scatters rows into
//     another partition's slot (a variable-indexed write to per-partition
//     state) must call the meter: AddShip, or the shipBatch wrapper.
var ShipAccounting = &Analyzer{
	Name: "shipaccounting",
	Doc:  "functions that move rows across partitions must meter them through (*Op).AddShip and be declared // lint:ship-boundary",
	Run:  runShipAccounting,
}

func runShipAccounting(p *Pass) error {
	if !shipPkgs[p.PkgName()] {
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Name.Name != "AddShip" { // the meter itself
				checkShipWrites(p, fn)
				checkMeterDeclared(p, fn)
			}
			checkBoundaryMeters(p, fn)
		}
	}
	return nil
}

// checkShipWrites enforces rule 1: the counters have one writer.
func checkShipWrites(p *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// The counters are sync/atomic values: a write is a method call
		// on the field, base.rowsShipped.Add(n).
		recv, method := methodCall(call)
		sel, ok := recv.(*ast.SelectorExpr)
		if !ok || !isAtomicWriteName(method) || !shipCounterFields[sel.Sel.Name] {
			return true
		}
		if fieldObj(p, sel) != nil && typeFromPkg(exprType(p, sel), "sync/atomic") {
			p.Report(call, "%s atomically writes ship counter %s; all ship accounting goes through (*Op).AddShip", name, sel.Sel.Name)
		}
		return true
	})
}

// isAtomicWriteName reports whether a sync/atomic method name mutates its
// cell (Load is a read and stays legal in snapshot code).
func isAtomicWriteName(name string) bool {
	for _, prefix := range []string{"Add", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// checkMeterDeclared enforces rule 2.
func checkMeterDeclared(p *Pass, fn *ast.FuncDecl) {
	if calledNames(fn.Body)["AddShip"] && !hasFuncMarker(fn, shipBoundaryMarker) {
		p.Report(fn.Name, "%s moves rows across partitions but is not declared; add a \"// lint:ship-boundary <reason>\" doc comment", fn.Name.Name)
	}
}

// checkBoundaryMeters enforces rule 3: a declared boundary that scatters
// rows into variable partition slots must meter the movement.
func checkBoundaryMeters(p *Pass, fn *ast.FuncDecl) {
	if !hasFuncMarker(fn, shipBoundaryMarker) {
		return
	}
	calls := calledNames(fn.Body)
	if calls["AddShip"] || calls["shipBatch"] {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok || !isPartState(p, ix.X) {
				continue
			}
			if _, constIdx := ix.Index.(*ast.BasicLit); constIdx {
				continue // a fixed coordinator slot, not a scatter
			}
			p.Report(as, "ship boundary %s scatters rows across partitions of %s without metering; call shipBatch (or AddShip)",
				fn.Name.Name, exprString(ix.X))
		}
		return true
	})
}

// calledNames collects the bare names of every function/method called in
// body (closures included: a meter call made inside a per-partition
// closure still charges the shipment).
func calledNames(body ast.Node) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			out[fun.Name] = true
		case *ast.SelectorExpr:
			out[fun.Sel.Name] = true
		}
		return true
	})
	return out
}
