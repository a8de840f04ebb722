package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// Handlerctx enforces the paper's execution-context contract for LAPI
// handlers (§4: header handlers run inside the dispatcher, on the
// notification/interrupt path). Any function registered as a
// lapi.HdrHandler — and everything statically reachable from it — must
// not:
//
//   - block in virtual time (Proc.Sleep, Cond.Wait, Queue.Get/Put,
//     Resource.Acquire, Barrier.Await, hal.ProgressWait, Counter.Wait):
//     the dispatcher that would make progress is the proc that is waiting,
//     so the wait can never be satisfied — deadlock;
//   - re-enter LAPI (Amsend/Put/Get/Rmw/Fence/FenceAll): the
//     runtime guard panics, and the ops can stall on the flow-control
//     window anyway;
//   - Spawn a simulated process: scheduling from dispatcher context makes
//     the event order depend on when the interrupt fired.
//
// Completion handlers (lapi.CmplHandler) get the same checks: under the
// Enhanced regime they run inline in dispatcher context (the paper's
// single-threaded optimisation), so the contract is identical there. Only
// the Base (threaded) regime runs them on a completion-handler thread
// that may legally wait — a handler that is threaded-only by design is
// annotated with an allow directive naming the regime.
//
// The analysis is interprocedural: effect summaries from the whole
// Program (facts.go) are consulted, so a Sleep three packages away from
// the RegisterHeaderHandler call is still found, and the diagnostic
// carries the call chain as a witness. Escape hatches, by design: calls
// through stored function values and interface methods are not followed
// (mpci's deferSend queue is the sanctioned way to move work out of
// handler context), and hal.ChargeCPU / hal.Send are trusted bounded
// waits.
var Handlerctx = &Analyzer{
	Name:      "handlerctx",
	Doc:       "forbid blocking, LAPI re-entry, and Spawn in code reachable from LAPI header/completion handlers",
	AppliesTo: inHandlerScope,
	Run:       handlerctxRun,
}

// inHandlerScope: the sim domain plus the examples, which register real
// handlers against the public API (the motivating comment lives in
// examples/histogram).
func inHandlerScope(pkgPath string) bool {
	return InSimDomain(pkgPath) || strings.Contains(pkgPath, "examples/")
}

// handlerRoot is one site that turns a function value into a handler: an
// expression of type lapi.HdrHandler or lapi.CmplHandler.
type handlerRoot struct {
	key  string    // summary key of the handler function
	pos  token.Pos // the site (registration arg, return, assignment, ...)
	cmpl bool      // completion handler (vs header handler)
}

func handlerctxRun(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	u := pass.Unit
	var roots []handlerRoot
	addRoot := func(e ast.Expr, cmpl bool) {
		if key, ok := prog.funcValueKey(u, e); ok {
			roots = append(roots, handlerRoot{key: key, pos: e.Pos(), cmpl: cmpl})
		}
	}
	// A handler is born wherever a func value meets one of the two named
	// lapi handler types: call arguments (RegisterHeaderHandler and any
	// helper taking a CmplHandler), returns (mpci's header handler returns
	// its completion closure), assignments, composite-literal fields, and
	// explicit conversions.
	for _, f := range u.Files {
		var fnStack []*types.Signature // enclosing functions, for returns
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if obj, ok := u.Info.Defs[n.Name].(*types.Func); ok {
					sig := obj.Type().(*types.Signature)
					fnStack = append(fnStack, sig)
					if n.Body != nil {
						ast.Inspect(n.Body, visit)
					}
					fnStack = fnStack[:len(fnStack)-1]
					return false
				}
			case *ast.FuncLit:
				if sig, ok := u.Info.Types[n.Type].Type.(*types.Signature); ok {
					fnStack = append(fnStack, sig)
					ast.Inspect(n.Body, visit)
					fnStack = fnStack[:len(fnStack)-1]
					return false
				}
			case *ast.CallExpr:
				if tv, ok := u.Info.Types[n.Fun]; ok && tv.IsType() {
					if cmpl, ok := handlerType(tv.Type); ok && len(n.Args) == 1 {
						addRoot(n.Args[0], cmpl)
					}
					return true
				}
				fn := staticCallee(u.Info, n)
				if fn == nil {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok {
					return true
				}
				for i, arg := range n.Args {
					if i >= sig.Params().Len() {
						break // variadic tail: handler types are never variadic here
					}
					if cmpl, ok := handlerType(sig.Params().At(i).Type()); ok {
						addRoot(arg, cmpl)
					}
				}
			case *ast.ReturnStmt:
				if len(fnStack) == 0 {
					return true
				}
				res := fnStack[len(fnStack)-1].Results()
				for i, r := range n.Results {
					if i >= res.Len() {
						break
					}
					if cmpl, ok := handlerType(res.At(i).Type()); ok {
						addRoot(r, cmpl)
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i := range n.Lhs {
					if tv, ok := u.Info.Types[n.Lhs[i]]; ok {
						if cmpl, ok := handlerType(tv.Type); ok {
							addRoot(n.Rhs[i], cmpl)
						}
					} else if id, ok := unparen(n.Lhs[i]).(*ast.Ident); ok && n.Tok == token.DEFINE {
						if obj := u.Info.Defs[id]; obj != nil {
							if cmpl, ok := handlerType(obj.Type()); ok {
								addRoot(n.Rhs[i], cmpl)
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i >= len(n.Names) {
						break
					}
					if obj := u.Info.Defs[n.Names[i]]; obj != nil {
						if cmpl, ok := handlerType(obj.Type()); ok {
							addRoot(v, cmpl)
						}
					}
				}
			case *ast.CompositeLit:
				// The value expression's own type is never the named
				// handler type when it is a closure literal, so resolve the
				// declared type of each field/element instead.
				var str *types.Struct
				if tv, ok := u.Info.Types[n]; ok {
					str = structUnder(tv.Type)
				}
				for i, elt := range n.Elts {
					var ft types.Type
					v := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v = kv.Value
						if id, ok := kv.Key.(*ast.Ident); ok {
							if fv, ok := u.Info.Uses[id].(*types.Var); ok {
								ft = fv.Type()
							}
						}
					} else if str != nil && i < str.NumFields() {
						ft = str.Field(i).Type()
					}
					if ft == nil {
						if tv, ok := u.Info.Types[v]; ok {
							ft = tv.Type
						}
					}
					if ft != nil {
						if cmpl, ok := handlerType(ft); ok {
							addRoot(v, cmpl)
						}
					}
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}

	for _, r := range roots {
		reportHandler(pass, r)
	}
}

// handlerType reports whether t is one of the two lapi handler types, and
// which (cmpl = true for CmplHandler).
func handlerType(t types.Type) (cmpl, ok bool) {
	n, isNamed := t.(*types.Named)
	if !isNamed {
		return false, false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || path.Base(obj.Pkg().Path()) != "lapi" {
		return false, false
	}
	switch obj.Name() {
	case "HdrHandler":
		return false, true
	case "CmplHandler":
		return true, true
	}
	return false, false
}

func reportHandler(pass *Pass, r handlerRoot) {
	prog := pass.Prog
	fi := prog.funcs[r.key]
	if fi == nil {
		return // declared outside the loaded units; no summary
	}
	kind := "header handler"
	if r.cmpl {
		kind = "completion handler"
	}
	if fi.effects&effBlocks != 0 {
		prim, chain := prog.chainString(fi.display, r.key, effBlocks)
		if r.cmpl {
			pass.Reportf(r.pos,
				"LAPI completion handler %s reaches blocking %s (%s): Enhanced-regime completion handlers run inline in dispatcher context and must not block; only the Base (threaded) regime may wait — annotate with an allow naming the regime if this handler is threaded-only",
				fi.display, prim, chain)
		} else {
			pass.Reportf(r.pos,
				"LAPI header handler %s reaches blocking %s (%s): header handlers run in dispatcher context and must not block (defer the work to a completion handler or a deferred-send queue)",
				fi.display, prim, chain)
		}
	}
	if fi.effects&effLAPI != 0 {
		prim, chain := prog.chainString(fi.display, r.key, effLAPI)
		pass.Reportf(r.pos,
			"LAPI %s %s re-enters LAPI via %s (%s): dispatcher-context code must not issue communication (queue it for a deferred send instead)",
			kind, fi.display, prim, chain)
	}
	if fi.effects&effSpawns != 0 {
		prim, chain := prog.chainString(fi.display, r.key, effSpawns)
		pass.Reportf(r.pos,
			"LAPI %s %s spawns a simulated process via %s (%s): dispatcher-context code must not schedule",
			kind, fi.display, prim, chain)
	}
}
