package simlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
)

// This file is the interprocedural half of the framework: a module-wide
// Program over every loaded unit, with one effect summary ("fact") per
// function. Summaries are keyed by a stable string — not by *types.Func —
// because each unit is type-checked independently and its imports are
// re-checked with IgnoreFuncBodies, so the same function is represented by
// different type objects in different units. The string key unifies them:
// the summary computed from package A's bodies is found when package B
// calls A through its (bodiless) import. This mirrors the facts mechanism
// of golang.org/x/tools/go/analysis, which this offline repository cannot
// depend on.
//
// Three effects are tracked and propagated to a fixed point over the
// static call graph:
//
//	blocks — the function can wait in virtual time (Proc.Sleep, Cond.Wait,
//	         Queue.Get/Put, Resource.Acquire/Use, Barrier.Await,
//	         hal.ProgressWait, lapi.Counter.Wait, or a LAPI comm op, which
//	         can stall on a full flow-control window)
//	lapi   — the function issues a LAPI communication op (Amsend, Put,
//	         Get, Rmw, Fence, FenceAll)
//	spawns — the function starts a simulated process (Engine.Spawn)
//
// Two HAL primitives are trusted bounded waits and deliberately opaque:
// ChargeCPU (models a fixed virtual-time CPU cost; every handler charges
// it) and Send (waits only for a DMA send buffer, drained by the adapter
// without dispatcher help). Effects never propagate through them.
//
// Deliberate limits, which are also the sanctioned escape hatches: calls
// through stored function values and interface methods are not followed
// (mpci's deferSend queue is the blessed way to move work out of handler
// context), and a function literal's effects belong to the literal alone,
// never to the function that merely creates it (returning a completion
// closure is not the same as running it).

// effectMask is a bit set of propagated effects.
type effectMask uint8

const (
	effBlocks effectMask = 1 << iota
	effLAPI
	effSpawns

	numEffects = 3
)

func (e effectMask) index() int {
	switch e {
	case effBlocks:
		return 0
	case effLAPI:
		return 1
	default:
		return 2
	}
}

// effOrigin records how a function acquired one effect: either a direct
// call to a primitive (prim != "") or a call to another function that has
// the effect (callee != ""). pos is the introducing call site.
type effOrigin struct {
	prim   string
	callee string
	pos    token.Pos
}

// funcInfo is one function's node in the program call graph.
type funcInfo struct {
	key     string
	display string
	unit    *Unit
	pos     token.Pos

	effects effectMask
	origins [numEffects]effOrigin
	calls   []callEdge
}

type callEdge struct {
	callee string
	pos    token.Pos
}

// A Program is the module-wide analysis view: every loaded unit plus the
// effect summary of every function declared in them.
type Program struct {
	Units []*Unit

	funcs map[string]*funcInfo
	keys  []string // sorted, for deterministic propagation and output
	// deliveryOwners are functions registered as packet-delivery handlers
	// (Fabric.AttachPort, Adapter.SetBypass): the fabric snapshotted the
	// payload at injection, so by delivery the handler owns the pooled
	// bytes — its *Packet parameter is not caller-owned. bufpoolown
	// consults this instead of taxing every delivery path with allow
	// directives.
	deliveryOwners map[string]bool
}

// deliveryRegs names the registration points that hand a function
// ownership of delivered packets (the handler is the second argument).
var deliveryRegs = map[primKey]bool{
	{"switchnet", "Fabric", "AttachPort"}: true,
	{"adapter", "Adapter", "SetBypass"}:   true,
}

// deliveryOwner reports whether the function with the given summary key is
// a registered packet-delivery handler.
func (pr *Program) deliveryOwner(key string) bool { return pr.deliveryOwners[key] }

// primKey classifies a callee by (package base name, receiver type name,
// function name). Matching by base name rather than full import path keeps
// the classification valid for test fixtures, which import the real
// packages under the module path while living under synthetic paths.
type primKey struct{ pkg, recv, name string }

var blockingPrims = map[primKey]string{
	{"sim", "Proc", "Sleep"}:       "sim.Proc.Sleep",
	{"sim", "Proc", "Yield"}:       "sim.Proc.Yield",
	{"sim", "Cond", "Wait"}:        "sim.Cond.Wait",
	{"sim", "Cond", "WaitTimeout"}: "sim.Cond.WaitTimeout",
	{"sim", "Queue", "Get"}:        "sim.Queue.Get",
	{"sim", "Queue", "Put"}:        "sim.Queue.Put",
	{"sim", "Resource", "Acquire"}: "sim.Resource.Acquire",
	{"sim", "Resource", "Use"}:     "sim.Resource.Use",
	{"sim", "Barrier", "Await"}:    "sim.Barrier.Await",
	{"hal", "HAL", "ProgressWait"}: "hal.HAL.ProgressWait",
	{"lapi", "Counter", "Wait"}:    "lapi.Counter.Wait",
}

// lapiComm are the LAPI communication entry points. They double as
// blocking primitives: every one of them can stall on a full flow-control
// window (flow.send calls ProgressWait) or on a counter.
var lapiComm = map[string]bool{
	"Amsend": true, "Put": true, "Get": true, "Rmw": true, "Fence": true,
	"FenceAll": true,
}

// trustedBounded are HAL primitives whose waits are bounded by construction
// (virtual-time CPU charging; DMA buffer drain) and safe in any context.
// No effect propagates through them.
var trustedBounded = map[primKey]bool{
	{"hal", "HAL", "ChargeCPU"}: true,
	{"hal", "HAL", "Send"}:      true,
}

// NewProgram builds summaries for every function in units and propagates
// effects over the call graph to a fixed point.
func NewProgram(units []*Unit) *Program {
	pr := &Program{Units: units, funcs: make(map[string]*funcInfo), deliveryOwners: make(map[string]bool)}
	for _, u := range units {
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := pr.declKey(u, fd)
				fi := &funcInfo{key: key, display: displayOfKey(key), unit: u, pos: fd.Pos()}
				pr.add(fi)
				pr.scanBody(u, fi, fd.Body)
			}
		}
	}
	pr.keys = make([]string, 0, len(pr.funcs))
	for k := range pr.funcs {
		pr.keys = append(pr.keys, k)
	}
	sort.Strings(pr.keys)
	pr.propagate()
	return pr
}

func (pr *Program) add(fi *funcInfo) {
	// Duplicate keys are possible only for identically-named functions in
	// the in-package and external-test units of one directory; keep the
	// first (declaration order within a unit is source order).
	if _, ok := pr.funcs[fi.key]; !ok {
		pr.funcs[fi.key] = fi
	}
}

// declKey returns the stable key of a declared function: pkgpath.Name or
// pkgpath.Recv.Name.
func (pr *Program) declKey(u *Unit, fd *ast.FuncDecl) string {
	if obj, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
		return funcKeyOf(obj)
	}
	return u.Path + "." + fd.Name.Name // unresolved; should not happen
}

// funcKeyOf is the stable cross-unit key of a named function or method.
func funcKeyOf(fn *types.Func) string {
	key := ""
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rn := recvTypeName(sig); rn != "" {
			key += rn + "."
		}
	}
	return key + fn.Name()
}

// litKey is the stable key of a function literal: position-based, since a
// literal has no name. The file path is module-relative so keys are stable
// across machines.
func (pr *Program) litKey(u *Unit, lit *ast.FuncLit) string {
	p := u.Fset.Position(lit.Pos())
	return fmt.Sprintf("%s.func@%s:%d:%d", u.Path, u.RelFile(p.Filename), p.Line, p.Column)
}

// displayOfKey compresses a key for diagnostics: the package import path
// is reduced to its base element ("splapi/internal/mpci.Provider.run" ->
// "mpci.Provider.run").
func displayOfKey(key string) string {
	slash := -1
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			slash = i
		}
	}
	return key[slash+1:]
}

func displayLit(u *Unit, lit *ast.FuncLit) string {
	p := u.Fset.Position(lit.Pos())
	return fmt.Sprintf("%s.func@%s:%d", path.Base(u.Path), filepath.Base(p.Filename), p.Line)
}

// scanBody collects the direct effects and call edges of one function
// body. Nested function literals become their own graph nodes: their
// statements are excluded from the enclosing function and scanned under
// the literal's key.
func (pr *Program) scanBody(u *Unit, fi *funcInfo, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			key := pr.litKey(u, n)
			lfi := &funcInfo{key: key, display: displayLit(u, n), unit: u, pos: n.Pos()}
			pr.add(lfi)
			pr.scanBody(u, lfi, n.Body)
			return false
		case *ast.CallExpr:
			pr.scanCall(u, fi, n)
		}
		return true
	})
}

func (pr *Program) scanCall(u *Unit, fi *funcInfo, call *ast.CallExpr) {
	// Immediate invocation of a literal: func(){...}() runs here, so the
	// literal's effects do flow into the enclosing function.
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		fi.calls = append(fi.calls, callEdge{pr.litKey(u, lit), call.Lparen})
		return
	}
	fn := staticCallee(u.Info, call)
	if fn == nil {
		return
	}
	pk := primKeyOf(fn)
	if deliveryRegs[pk] && len(call.Args) == 2 {
		if key, ok := pr.funcValueKey(u, call.Args[1]); ok {
			pr.deliveryOwners[key] = true
		}
	}
	if trustedBounded[pk] {
		return
	}
	if desc, ok := blockingPrims[pk]; ok {
		fi.setDirect(effBlocks, desc, call.Lparen)
		return
	}
	if pk.pkg == "lapi" && pk.recv == "LAPI" && lapiComm[pk.name] {
		desc := "lapi.LAPI." + pk.name
		fi.setDirect(effLAPI, desc, call.Lparen)
		fi.setDirect(effBlocks, desc+" (can stall on the flow-control window)", call.Lparen)
		return
	}
	if pk == (primKey{"sim", "Engine", "Spawn"}) {
		fi.setDirect(effSpawns, "sim.Engine.Spawn", call.Lparen)
		return
	}
	fi.calls = append(fi.calls, callEdge{funcKeyOf(fn), call.Lparen})
}

func (fi *funcInfo) setDirect(eff effectMask, prim string, pos token.Pos) {
	if fi.effects&eff != 0 {
		return
	}
	fi.effects |= eff
	fi.origins[eff.index()] = effOrigin{prim: prim, pos: pos}
}

// staticCallee resolves a call to the *types.Func it statically invokes:
// package functions, methods on concrete receivers, and qualified imports.
// Calls through function-typed variables, fields, and interface methods
// resolve to nil and are not followed.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil // dynamic dispatch: not followed
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func primKeyOf(fn *types.Func) primKey {
	pk := primKey{name: fn.Name()}
	if fn.Pkg() != nil {
		pk.pkg = path.Base(fn.Pkg().Path())
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		pk.recv = recvTypeName(sig)
	}
	return pk
}

// propagate closes the effect sets over call edges. Iteration order is the
// sorted key list so the recorded origins (and with them the diagnostic
// call chains) are deterministic.
func (pr *Program) propagate() {
	for changed := true; changed; {
		changed = false
		for _, k := range pr.keys {
			fi := pr.funcs[k]
			for _, e := range fi.calls {
				callee := pr.funcs[e.callee]
				if callee == nil {
					continue // stdlib, unresolved, or bodiless: no effects
				}
				for _, eff := range []effectMask{effBlocks, effLAPI, effSpawns} {
					if callee.effects&eff != 0 && fi.effects&eff == 0 {
						fi.effects |= eff
						fi.origins[eff.index()] = effOrigin{callee: e.callee, pos: e.pos}
						changed = true
					}
				}
			}
		}
	}
}

// chain reconstructs the witness path for one effect of one function: the
// sequence of displayed callee names from the function down to the
// primitive that introduces the effect.
func (pr *Program) chain(key string, eff effectMask) (steps []string, prim string) {
	seen := make(map[string]bool)
	for {
		fi := pr.funcs[key]
		if fi == nil || fi.effects&eff == 0 || seen[key] {
			return steps, prim
		}
		seen[key] = true
		o := fi.origins[eff.index()]
		if o.prim != "" {
			return steps, o.prim
		}
		steps = append(steps, displayOfKey(o.callee))
		if lfi := pr.funcs[o.callee]; lfi != nil {
			steps[len(steps)-1] = lfi.display
		}
		key = o.callee
	}
}

// chainString renders a witness chain for a diagnostic: the root display
// name, intermediate hops, and the primitive reached.
func (pr *Program) chainString(rootDisplay, key string, eff effectMask) (prim, chain string) {
	steps, prim := pr.chain(key, eff)
	parts := append([]string{rootDisplay}, steps...)
	if len(parts) == 1 {
		return prim, "direct call"
	}
	chain = "call chain " + parts[0]
	for _, s := range parts[1:] {
		chain += " -> " + s
	}
	return prim, chain
}

// funcValueKey resolves an expression used as a function value (a handler
// being registered, returned, or stored) to its summary key. Function
// literals and named functions/methods resolve; variables holding
// functions do not — storing a handler in a variable first is the
// documented way to opt a value out of the analysis.
func (pr *Program) funcValueKey(u *Unit, e ast.Expr) (string, bool) {
	switch e := unparen(e).(type) {
	case *ast.FuncLit:
		return pr.litKey(u, e), true
	case *ast.Ident:
		if fn, ok := u.Info.Uses[e].(*types.Func); ok {
			return funcKeyOf(fn), true
		}
	case *ast.SelectorExpr:
		if fn, ok := u.Info.Uses[e.Sel].(*types.Func); ok {
			return funcKeyOf(fn), true
		}
	case *ast.CallExpr:
		// A conversion (lapi.CmplHandler(f)) passes through to its operand.
		if tv, ok := u.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return pr.funcValueKey(u, e.Args[0])
		}
	}
	return "", false
}
