package simlint

import (
	"go/ast"
	"go/types"
)

// Maporder bans map iteration in simulation packages, test files included:
// every `range` over a map-typed expression and every use of a maps
// function that visits a map in Go's order. Go randomizes that order, so a
// map walk in simulated code is one edit away from feeding host entropy
// into the event schedule. A ban is simpler to hold than a judgement of
// which loop bodies are order-free, and the simulated packages need no map
// walk: what they iterate, they keep in a slice.
var Maporder = &Analyzer{
	Name:      "maporder",
	Doc:       "forbid map iteration (range over a map, maps.Keys/Values/All/DeleteFunc/EqualFunc) in simulation packages",
	AppliesTo: InSimDomain,
	Run:       maporderRun,
}

// mapWalkers are the maps functions that visit a map in Go's order: the
// three iterators, and the two that call back per entry.
var mapWalkers = map[string]bool{"Keys": true, "Values": true, "All": true, "DeleteFunc": true, "EqualFunc": true}

func maporderRun(pass *Pass) {
	info := pass.Unit.Info
	for _, file := range pass.Unit.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.For, "range over map %s: map order is random; keep the entries in a slice", types.ExprString(n.X))
					}
				}
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[n.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "maps" && mapWalkers[fn.Name()] {
					pass.Reportf(n.Pos(), "maps.%s walks a map: map order is random; keep the entries in a slice", fn.Name())
				}
			}
			return true
		})
	}
}
