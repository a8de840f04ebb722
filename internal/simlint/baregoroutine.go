package simlint

import (
	"go/ast"
	"path"
)

// Baregoroutine forbids `go` statements in simulation packages. The sim
// kernel multiplexes all simulated control flow over a single token (one
// Proc or the engine runs at a time); a bare goroutine runs concurrently
// with simulated code, races with it, and injects host-scheduler
// nondeterminism into virtual time. Processes must be created with
// sim.Engine.Spawn. A coroutine is a goroutine too, so iter.Pull and
// iter.Pull2 are flagged as well, except in package sim, whose process
// coroutines are the only goroutines the simulation creates.
var Baregoroutine = &Analyzer{
	Name:      "baregoroutine",
	Doc:       "forbid bare `go` statements and iter.Pull coroutines in simulation packages; use sim.Engine.Spawn",
	AppliesTo: InSimDomain,
	Run:       baregoroutineRun,
}

func baregoroutineRun(pass *Pass) {
	for _, f := range pass.Unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if s, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(s.Pos(),
					"bare goroutine in a simulation package: real goroutines race with the cooperative Proc scheduler; use sim.Engine.Spawn")
			}
			return true
		})
	}
	for id, obj := range pass.Unit.Info.Uses {
		if obj.Pkg() != nil && obj.Pkg().Path() == "iter" && (obj.Name() == "Pull" || obj.Name() == "Pull2") && path.Base(pass.Unit.Path) != "sim" {
			pass.Reportf(id.Pos(), "iter.%s in a simulation package: a coroutine is a goroutine the Proc scheduler does not own; use sim.Engine.Spawn", obj.Name())
		}
	}
}
