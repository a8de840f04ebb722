package simlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// Bufpoolown enforces payload ownership within each function. In every
// simulation package it checks the BufPool discipline (sim/pool.go)
// flow-sensitively:
//
//   - use-after-Put: Put transfers ownership to the pool; a later Get may
//     recycle the backing array, so reading or writing the slice after Put
//     races with unrelated code in virtual time;
//   - double-Put: returning the same buffer twice parks the array on the
//     free list twice, so two later Gets alias each other. Branches are
//     merged, so a Put on one path followed by an unconditional Put is
//     caught as a possible double-Put;
//   - Put-of-subslice: Put recycles by capacity class. A capacity-changing
//     sub-slice (b[2:], b[:n:m]) either misses every class (silent leak)
//     or lands in a smaller class while the parent slice still aliases
//     the bytes;
//   - Put-of-caller-owned bytes: pooling bytes the caller still uses lets
//     a later Get rewrite them;
//   - leak-on-all-paths: a buffer obtained from Get/Snapshot that is
//     never Put, never escapes (field, global, channel, composite,
//     return, closure capture), and is never handed to another function
//     is lost on every path.
//   - use-after-Deregister: RegisterRegion pins a buffer with the adapter
//     so RDMA engines may land bytes in it; Deregister unpins it. Touching
//     the buffer through the dead registration afterwards (in source order
//     within one function) is the RDMA analogue of use-after-Put — the
//     adapter no longer translates the region, so a transfer aimed at it
//     scribbles over unpinned memory.
//
// On the packet injection boundary (InInjectionBoundary) the fabric
// delivers packets at a future virtual time while senders keep re-stamping
// their buffers (piggybacked acks in retransmission buffers), so it also
// flags retaining caller-owned bytes without a copy: storing them into a
// struct field, map or slice element, or package-level variable; placing
// them in a composite literal; sending them on a channel; appending them
// as an element; or capturing them in a closure passed to the engine's
// At/After/Spawn. Those are exactly the sites where a pooled buffer
// escapes, and one helper (keep) judges both.
//
// Caller-owned bytes are the []byte parameters and the []byte fields of
// struct (pointer) parameters, e.g. pkt.Payload. They are tracked through
// assignments, reslices, slice conversions and append's first operand.
// Copies cleanse: append([]byte(nil), b...), copy into a fresh buffer, or
// any function-call result. Assigning an owned value over a carrier field
// (the fabric's snapshot line) clears the field for the rest of the
// function.
//
// A function registered as a packet-delivery handler (Fabric.AttachPort,
// Adapter.SetBypass) owns its delivered packet's pooled payload, because
// the fabric snapshotted the bytes at injection. Its parameters carry no
// caller ownership: an RDMA bypass handler landing chunks in a registered
// read target, or returning the spent packet to the pool, is the
// discipline working, not a violation.
//
// Ownership here is intraprocedural by design: passing a buffer to a
// callee discharges the leak obligation (the callee may keep it) but does
// not release ownership — the caller may still Put afterwards, as the
// deliver-then-Put idiom does. Capacity-changing reslices of a pooled
// buffer become sub-slice aliases whose Put is an error.
var Bufpoolown = &Analyzer{
	Name:      "bufpoolown",
	Doc:       "payload ownership: use-after-Put, double-Put, Put-of-subslice, caller-owned Put, leaks; no caller-owned []byte retained across the injection boundary without a copy",
	AppliesTo: InSimDomain,
	Run:       bufpoolownRun,
}

func bufpoolownRun(pass *Pass) {
	for _, file := range pass.Unit.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bufpoolownFunc(pass, fn.Type.Params, fn.Body, declIsDeliveryOwner(pass, fn))
				}
			case *ast.FuncLit:
				bufpoolownFunc(pass, fn.Type.Params, fn.Body, false)
			}
			return true
		})
	}
}

// declIsDeliveryOwner reports whether fn is a registered packet-delivery
// handler: it owns the payloads it is handed, so the caller-ownership
// rules do not apply to its parameters.
func declIsDeliveryOwner(pass *Pass, fn *ast.FuncDecl) bool {
	obj, ok := pass.Unit.Info.Defs[fn.Name].(*types.Func)
	return ok && pass.Prog != nil && pass.Prog.deliveryOwner(funcKeyOf(obj))
}

// bpState is the per-path ownership state of one pooled buffer.
type bpState uint8

const (
	bpOwned         bpState = iota
	bpMaybeReleased         // released on some merged path
	bpReleased
	bpEscaped // ownership left the function; no further obligations
)

// bpRecord is one pooled buffer (a Get/Snapshot result). Aliases share the
// record; the sticky flags are whole-function properties feeding the leak
// rule, while the per-path state lives in bpEnv.
type bpRecord struct {
	name    string
	src     string // "Get" or "Snapshot"
	getPos  token.Pos
	everPut bool
	escaped bool
	passed  bool // handed to a callee, which may have kept it
}

// bpEnv maps each buffer to its state on the current control-flow path.
type bpEnv map[*bpRecord]bpState

func cloneEnv(e bpEnv) bpEnv {
	out := make(bpEnv, len(e))
	for r, s := range e {
		out[r] = s
	}
	return out
}

func mergeState(a, b bpState) bpState {
	if a == b {
		return a
	}
	if a == bpEscaped || b == bpEscaped {
		return bpEscaped
	}
	return bpMaybeReleased
}

func mergeEnv(a, b bpEnv) bpEnv {
	out := cloneEnv(a)
	for r, s := range b {
		if t, ok := out[r]; ok {
			out[r] = mergeState(t, s)
		} else {
			out[r] = s
		}
	}
	return out
}

type bpWalker struct {
	pass *Pass
	info *types.Info
	vars map[types.Object]*bpRecord // exact (capacity-preserving) aliases
	subs map[types.Object]*bpRecord // capacity-changing sub-slice aliases
	recs []*bpRecord
	// Caller-owned bytes: locals aliasing them, and pointer/struct
	// parameters mapped to their caller-owned []byte fields (pkt ->
	// {Payload}). Tracking is flow-through in source order, not per path.
	callerTainted map[types.Object]bool
	carrier       map[types.Object]map[*types.Var]bool
	// boundary turns on the retention rules (InInjectionBoundary).
	boundary bool
	// Registered RDMA regions, for the use-after-Deregister rule: the rkey
	// variable and the buffer it pins, tracked in source order.
	regKeys map[types.Object]*regRecord
	regBufs map[types.Object]*regRecord
	// Loop bodies are walked twice (once to find the fixed point, once to
	// catch cross-iteration bugs), so reports are deduplicated by position
	// and message.
	reported map[string]bool
}

// regRecord is one RegisterRegion result tracked within a function.
type regRecord struct {
	bufName  string
	deregged bool
}

func bufpoolownFunc(pass *Pass, params *ast.FieldList, body *ast.BlockStmt, owner bool) {
	w := &bpWalker{
		pass:          pass,
		info:          pass.Unit.Info,
		vars:          make(map[types.Object]*bpRecord),
		subs:          make(map[types.Object]*bpRecord),
		callerTainted: make(map[types.Object]bool),
		carrier:       make(map[types.Object]map[*types.Var]bool),
		boundary:      InInjectionBoundary(pass.Unit.Path),
		regKeys:       make(map[types.Object]*regRecord),
		regBufs:       make(map[types.Object]*regRecord),
		reported:      make(map[string]bool),
	}
	if owner {
		// Delivery handlers own their packets: no caller taint to seed.
		params = nil
	}
	if params != nil {
		for _, field := range params.List {
			for _, name := range field.Names {
				obj := w.info.Defs[name]
				if obj == nil {
					continue
				}
				if isByteSlice(obj.Type()) {
					w.callerTainted[obj] = true
					continue
				}
				if str := structUnder(obj.Type()); str != nil {
					var fields map[*types.Var]bool
					for i := 0; i < str.NumFields(); i++ {
						if f := str.Field(i); isByteSlice(f.Type()) {
							if fields == nil {
								fields = make(map[*types.Var]bool)
							}
							fields[f] = true
						}
					}
					if fields != nil {
						w.carrier[obj] = fields
					}
				}
			}
		}
	}
	w.walk(body.List, make(bpEnv))
	for _, rec := range w.recs {
		if !rec.everPut && !rec.escaped && !rec.passed {
			w.report(rec.getPos,
				"pooled buffer %s (Pool().%s) is never returned to the pool, never escapes, and is never handed to another function: leaked on every path",
				rec.name, rec.src)
		}
	}
}

func (w *bpWalker) report(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d|%s", pos, msg)
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.pass.Reportf(pos, "%s", msg)
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

func structUnder(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	str, _ := t.Underlying().(*types.Struct)
	return str
}

// recvTypeName returns the name of a method's receiver type (through one
// level of pointer), or "" for non-named receivers.
func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// method returns the name of the method e calls when its receiver type is
// recv in the package whose last path element is pkg (any receiver type
// there when recv is ""), else "".
func (w *bpWalker) method(e ast.Expr, pkg, recv string) (string, *ast.CallExpr) {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := w.info.Uses[se.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || path.Base(fn.Pkg().Path()) != pkg {
		return "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || (recv != "" && recvTypeName(sig) != recv) {
		return "", nil
	}
	return fn.Name(), call
}

// bindRegion records `rkey, ready := eng.RegisterRegion(buf)`: uses of buf
// after Deregister(rkey) are then flagged. Only plain local buffers are
// tracked; fields and sub-slices of fields are beyond this intraprocedural
// view.
func (w *bpWalker) bindRegion(keyLHS, bufArg ast.Expr, tok token.Token) {
	id, ok := unparen(keyLHS).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	var keyObj types.Object
	if tok == token.DEFINE {
		keyObj = w.info.Defs[id]
	} else {
		keyObj = w.info.Uses[id]
	}
	root := unparen(bufArg)
	if sl, ok := root.(*ast.SliceExpr); ok {
		root = unparen(sl.X)
	}
	bufID, ok := root.(*ast.Ident)
	if !ok || keyObj == nil {
		return
	}
	bufObj := w.info.Uses[bufID]
	if bufObj == nil {
		return
	}
	rec := &regRecord{bufName: bufID.Name}
	w.regKeys[keyObj] = rec
	w.regBufs[bufObj] = rec
}

// capChanging reports whether the reslice changes the slice's capacity:
// any 3-index slice, or a low bound that is not statically zero. b[:n]
// keeps the capacity (and so the pool size class); b[2:] does not.
func capChanging(s *ast.SliceExpr) bool {
	if s.Max != nil {
		return true
	}
	if s.Low == nil {
		return false
	}
	if lit, ok := unparen(s.Low).(*ast.BasicLit); ok && lit.Value == "0" {
		return false
	}
	return true
}

// sliceRoot strips what yields the same backing array as its operand —
// parentheses, reslices, slice-to-[]byte conversions and append's first
// argument (append within capacity is in place; a growing append makes a
// Put harmless, since foreign capacity is dropped) — and reports whether
// a reslice on the way changed the capacity.
func (w *bpWalker) sliceRoot(e ast.Expr) (root ast.Expr, capChanged bool) {
	for {
		switch x := unparen(e).(type) {
		case *ast.SliceExpr:
			capChanged = capChanged || capChanging(x)
			e = x.X
		case *ast.CallExpr:
			if !w.sharesFirstArg(x) {
				return x, capChanged // function results are freshly owned
			}
			e = x.Args[0]
		default:
			return x, capChanged
		}
	}
}

// sharesFirstArg reports whether call's result may share its first
// argument's backing array: append, or a slice-to-[]byte conversion
// (string->[]byte allocates).
func (w *bpWalker) sharesFirstArg(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		at := w.info.TypeOf(call.Args[0])
		if at == nil || !isByteSlice(tv.Type) {
			return false
		}
		_, fromSlice := at.Underlying().(*types.Slice)
		return fromSlice
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && isBuiltin(w.info, id, "append")
}

func isBuiltin(info *types.Info, id *ast.Ident, name string) bool {
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// aliasOf resolves an expression to the pooled buffer it aliases, and
// whether the alias is capacity-changing (sub).
func (w *bpWalker) aliasOf(e ast.Expr) (rec *bpRecord, sub bool) {
	root, sub := w.sliceRoot(e)
	id, ok := root.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := w.info.Uses[id]
	if obj == nil {
		return nil, false
	}
	if r := w.vars[obj]; r != nil {
		return r, sub
	}
	if r := w.subs[obj]; r != nil {
		return r, true
	}
	return nil, false
}

// callerRetains reports whether e yields bytes the caller of this function
// still owns.
func (w *bpWalker) callerRetains(e ast.Expr) bool {
	root, _ := w.sliceRoot(e)
	switch e := root.(type) {
	case *ast.Ident:
		obj := w.info.Uses[e]
		return obj != nil && w.callerTainted[obj]
	case *ast.SelectorExpr:
		sel := w.info.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal {
			return false
		}
		base, ok := unparen(e.X).(*ast.Ident)
		if !ok {
			return false
		}
		fields := w.carrier[w.info.Uses[base]]
		if fields == nil {
			return false
		}
		fv, ok := sel.Obj().(*types.Var)
		return ok && fields[fv]
	}
	return false
}

func (w *bpWalker) escape(rec *bpRecord, env bpEnv) {
	rec.escaped = true
	env[rec] = bpEscaped
}

// keep judges a site where the value of e outlives the statement: a pooled
// alias escapes, and on the injection boundary a caller-owned alias is
// flagged at pos as retained (what says how). An empty what marks a site
// where keeping caller bytes is fine, e.g. a return hands them back.
func (w *bpWalker) keep(e ast.Expr, env bpEnv, pos token.Pos, what string) {
	if rec, _ := w.aliasOf(e); rec != nil {
		w.escape(rec, env)
	} else if w.boundary && what != "" && w.callerRetains(e) {
		w.report(pos,
			"caller-owned payload %s %s without a copy: the caller may rewrite the bytes while they are in flight (snapshot with append([]byte(nil), b...))",
			types.ExprString(e), what)
	}
}

// capture handles a closure literal, which outlives this walk: each
// identifier and selector in it is kept, what as in keep (empty unless the
// closure goes to the event scheduler). Its body is analyzed separately.
func (w *bpWalker) capture(lit *ast.FuncLit, env bpEnv, what string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			w.keep(n, env, n.Pos(), what)
		case *ast.SelectorExpr:
			w.keep(n, env, n.Pos(), what)
		}
		return true
	})
}

// checkUse flags a read of a buffer that has definitely been returned.
func (w *bpWalker) checkUse(id *ast.Ident, env bpEnv) {
	obj := w.info.Uses[id]
	if obj == nil {
		return
	}
	if rec := w.vars[obj]; rec != nil && env[rec] == bpReleased {
		w.report(id.Pos(),
			"use of pooled buffer %s after Put: ownership moved to the pool and a later Get may have recycled the backing array",
			id.Name)
	}
	if rec := w.regBufs[obj]; rec != nil && rec.deregged {
		w.report(id.Pos(),
			"access to buffer %s through a deregistered region: Deregister unpinned it, so the adapter no longer translates RDMA transfers aimed at these bytes",
			id.Name)
	}
}

// scanExpr walks an expression on the current path: it checks buffer uses,
// handles Put and keep sites, and records closures capturing buffers.
func (w *bpWalker) scanExpr(e ast.Expr, env bpEnv) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		w.checkUse(e, env)
	case *ast.ParenExpr:
		w.scanExpr(e.X, env)
	case *ast.SelectorExpr:
		w.scanExpr(e.X, env)
	case *ast.StarExpr:
		w.scanExpr(e.X, env)
	case *ast.UnaryExpr:
		w.scanExpr(e.X, env)
	case *ast.BinaryExpr:
		w.scanExpr(e.X, env)
		w.scanExpr(e.Y, env)
	case *ast.KeyValueExpr:
		w.scanExpr(e.Key, env)
		w.scanExpr(e.Value, env)
	case *ast.IndexExpr:
		w.scanExpr(e.X, env)
		w.scanExpr(e.Index, env)
	case *ast.SliceExpr:
		w.scanExpr(e.X, env)
		w.scanExpr(e.Low, env)
		w.scanExpr(e.High, env)
		w.scanExpr(e.Max, env)
	case *ast.TypeAssertExpr:
		w.scanExpr(e.X, env)
	case *ast.CallExpr:
		w.scanCall(e, env)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			w.scanExpr(v, env)
			w.keep(v, env, v.Pos(), "aliased into a composite literal")
		}
	case *ast.FuncLit:
		w.capture(e, env, "")
	}
}

func (w *bpWalker) scanCall(call *ast.CallExpr, env bpEnv) {
	switch m, pc := w.method(call, "hal", "RdmaEngine"); m {
	case "Deregister":
		w.scanExpr(selBase(call.Fun), env)
		for _, arg := range pc.Args {
			w.scanExpr(arg, env)
		}
		if len(pc.Args) == 1 {
			if id, ok := unparen(pc.Args[0]).(*ast.Ident); ok {
				if rec := w.regKeys[w.info.Uses[id]]; rec != nil {
					rec.deregged = true
				}
			}
		}
		return
	case "RegisterRegion":
		// Registering revives a dead buffer, so the argument's root is not
		// a use of the old registration; pooled buffers handed over still
		// discharge their leak obligation.
		w.scanExpr(selBase(call.Fun), env)
		for _, arg := range pc.Args {
			if sl, ok := unparen(arg).(*ast.SliceExpr); ok {
				w.scanExpr(sl.Low, env)
				w.scanExpr(sl.High, env)
				w.scanExpr(sl.Max, env)
			}
			if rec, _ := w.aliasOf(arg); rec != nil {
				rec.passed = true
			}
		}
		return
	}
	switch m, _ := w.method(call, "sim", "BufPool"); m {
	case "Put":
		w.scanExpr(selBase(call.Fun), env)
		w.putArg(call.Args[0], env)
		return
	case "Get", "Snapshot":
		w.scanExpr(selBase(call.Fun), env)
		for _, arg := range call.Args {
			w.scanExpr(arg, env)
		}
		return
	}
	// Conversions copy or alias; either way no ownership transfer.
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		for _, arg := range call.Args {
			w.scanExpr(arg, env)
		}
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := w.info.Uses[id].(*types.Builtin); ok {
			for _, arg := range call.Args {
				w.scanExpr(arg, env)
			}
			if isBuiltin(w.info, id, "append") && !call.Ellipsis.IsValid() {
				// append(q, b): b becomes an element of a longer-lived
				// slice; append(q, b...) copies the bytes.
				for _, arg := range call.Args[1:] {
					w.keep(arg, env, arg.Pos(), "appended as an element of a longer-lived slice")
				}
			}
			return
		}
	}
	w.scanExpr(call.Fun, env)
	// A closure handed to the event scheduler runs at a future virtual
	// time: caller bytes it captures can change before the event fires.
	captured := ""
	if m, _ := w.method(call, "sim", ""); m == "At" || m == "After" || m == "Spawn" {
		captured = "captured by a deferred " + m + " callback"
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			w.capture(lit, env, captured)
			continue
		}
		w.scanExpr(arg, env)
		if rec, _ := w.aliasOf(arg); rec != nil {
			// The callee may keep the buffer: the leak obligation is
			// discharged, but ownership stays here (deliver-then-Put).
			rec.passed = true
		}
	}
}

// selBase returns the receiver chain of a selector call (eng.Pool() in
// eng.Pool().Put(b)) so its identifiers still get use-checked.
func selBase(fun ast.Expr) ast.Expr {
	if se, ok := unparen(fun).(*ast.SelectorExpr); ok {
		return se.X
	}
	return nil
}

func (w *bpWalker) putArg(arg ast.Expr, env bpEnv) {
	arg = unparen(arg)
	// Scan subexpressions that are not the buffer root itself (the root is
	// judged by the ownership rules below, not the use-after-Put rule).
	switch a := arg.(type) {
	case *ast.Ident:
	case *ast.SliceExpr:
		w.scanExpr(a.Low, env)
		w.scanExpr(a.High, env)
		w.scanExpr(a.Max, env)
	case *ast.SelectorExpr:
		w.scanExpr(a.X, env)
	default:
		w.scanExpr(arg, env)
	}
	name := types.ExprString(arg)
	if rec, sub := w.aliasOf(arg); rec != nil {
		if sub {
			w.report(arg.Pos(),
				"Put of a sub-slice of pooled buffer %s (%s): the capacity no longer matches the buffer's size class, so the pool either drops it (leak) or recycles it into a smaller class while the parent slice still aliases the bytes — return the original buffer",
				rec.name, name)
			rec.everPut = true
			env[rec] = bpReleased
			return
		}
		switch env[rec] {
		case bpReleased:
			w.report(arg.Pos(),
				"double Put of pooled buffer %s: it was already returned to the pool (two parked copies make two later Gets alias each other)",
				name)
		case bpMaybeReleased:
			w.report(arg.Pos(),
				"possible double Put of pooled buffer %s: it was already returned to the pool on another path",
				name)
		case bpEscaped:
			// Ownership left the function; the holder is responsible.
		default:
			env[rec] = bpReleased
		}
		rec.everPut = true
		return
	}
	if w.callerRetains(arg) {
		w.report(arg.Pos(),
			"caller-owned payload %s returned to the buffer pool: a later Get may rewrite bytes the caller still uses (Put only buffers this function owns, e.g. a Snapshot)",
			name)
	}
}

// walk processes a statement list on one path, returning the resulting env
// and whether the path terminated (return or branch statement).
func (w *bpWalker) walk(list []ast.Stmt, env bpEnv) (bpEnv, bool) {
	for _, s := range list {
		var term bool
		env, term = w.walkStmt(s, env)
		if term {
			return env, true
		}
	}
	return env, false
}

func (w *bpWalker) walkStmt(s ast.Stmt, env bpEnv) (bpEnv, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				w.handleAssign(s.Lhs[i], s.Rhs[i], s.Tok, env)
			}
			return env, false
		}
		// Multi-value: results are freshly owned; rebinding clears old
		// tracking.
		for _, rhs := range s.Rhs {
			w.scanExpr(rhs, env)
		}
		for _, lhs := range s.Lhs {
			w.unbind(lhs, s.Tok)
		}
		if len(s.Rhs) == 1 && len(s.Lhs) == 2 {
			if m, pc := w.method(s.Rhs[0], "hal", "RdmaEngine"); m == "RegisterRegion" && len(pc.Args) == 1 {
				w.bindRegion(s.Lhs[0], pc.Args[0], s.Tok)
			}
		}
		return env, false
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return env, false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, v := range vs.Values {
				w.scanExpr(v, env)
				if len(vs.Names) == len(vs.Values) {
					w.handleAssignObj(w.info.Defs[vs.Names[i]], vs.Names[i].Name, v, env)
				}
			}
		}
		return env, false
	case *ast.ExprStmt:
		w.scanExpr(s.X, env)
		return env, false
	case *ast.IncDecStmt:
		w.scanExpr(s.X, env)
		return env, false
	case *ast.SendStmt:
		w.scanExpr(s.Chan, env)
		w.scanExpr(s.Value, env)
		w.keep(s.Value, env, s.Arrow, "sent on a channel")
		return env, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scanExpr(r, env)
			w.keep(r, env, r.Pos(), "")
		}
		return env, true
	case *ast.BranchStmt:
		// break/continue/goto: stop tracking this path conservatively.
		return env, true
	case *ast.DeferStmt:
		if m, pc := w.method(s.Call, "sim", "BufPool"); m == "Put" {
			// Deferred Put runs at function exit: it satisfies the leak
			// obligation without changing the state here.
			if rec, sub := w.aliasOf(pc.Args[0]); rec != nil && !sub {
				rec.everPut = true
				return env, false
			}
		}
		w.scanExpr(s.Call, env)
		return env, false
	case *ast.GoStmt:
		w.scanExpr(s.Call, env)
		return env, false
	case *ast.BlockStmt:
		return w.walk(s.List, env)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, env)
	case *ast.IfStmt:
		if s.Init != nil {
			env, _ = w.walkStmt(s.Init, env)
		}
		w.scanExpr(s.Cond, env)
		thenEnv, thenTerm := w.walk(s.Body.List, cloneEnv(env))
		elseEnv, elseTerm := cloneEnv(env), false
		if s.Else != nil {
			elseEnv, elseTerm = w.walkStmt(s.Else, elseEnv)
		}
		switch {
		case thenTerm && elseTerm:
			return env, true
		case thenTerm:
			return elseEnv, false
		case elseTerm:
			return thenEnv, false
		default:
			return mergeEnv(thenEnv, elseEnv), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			env, _ = w.walkStmt(s.Init, env)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, env)
		}
		return w.walkLoop(s.Body.List, s.Post, env), false
	case *ast.RangeStmt:
		w.scanExpr(s.X, env)
		if s.Tok == token.ASSIGN {
			w.unbind(s.Key, s.Tok)
			w.unbind(s.Value, s.Tok)
		}
		return w.walkLoop(s.Body.List, nil, env), false
	case *ast.SwitchStmt:
		if s.Init != nil {
			env, _ = w.walkStmt(s.Init, env)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, env)
		}
		return w.walkCases(s.Body, env), false
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			env, _ = w.walkStmt(s.Init, env)
		}
		if s.Assign != nil {
			env, _ = w.walkStmt(s.Assign, env)
		}
		return w.walkCases(s.Body, env), false
	case *ast.SelectStmt:
		merged := env
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			ce := cloneEnv(env)
			if cc.Comm != nil {
				ce, _ = w.walkStmt(cc.Comm, ce)
			}
			ce, term := w.walk(cc.Body, ce)
			if !term {
				merged = mergeEnv(merged, ce)
			}
		}
		return merged, false
	}
	return env, false
}

// walkLoop walks a loop body twice: the first pass reaches the merged
// loop-head state, the second catches cross-iteration bugs (a Put in the
// body is a double-Put on the next trip). Reports are deduplicated.
func (w *bpWalker) walkLoop(body []ast.Stmt, post ast.Stmt, env bpEnv) bpEnv {
	one, term := w.walk(body, cloneEnv(env))
	if term {
		one = cloneEnv(env)
	} else if post != nil {
		one, _ = w.walkStmt(post, one)
	}
	head := mergeEnv(env, one)
	two, term := w.walk(body, cloneEnv(head))
	if term {
		two = cloneEnv(head)
	} else if post != nil {
		two, _ = w.walkStmt(post, two)
	}
	return mergeEnv(env, mergeEnv(head, two))
}

func (w *bpWalker) walkCases(body *ast.BlockStmt, env bpEnv) bpEnv {
	merged := env // no-default and zero-iteration paths keep the entry env
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, x := range cc.List {
			w.scanExpr(x, env)
		}
		ce, term := w.walk(cc.Body, cloneEnv(env))
		if !term {
			merged = mergeEnv(merged, ce)
		}
	}
	return merged
}

func (w *bpWalker) handleAssign(lhs, rhs ast.Expr, tok token.Token, env bpEnv) {
	w.scanExpr(rhs, env)
	switch l := unparen(lhs).(type) {
	case *ast.IndexExpr:
		w.scanExpr(l.X, env)
		w.scanExpr(l.Index, env)
		w.keep(rhs, env, l.Pos(), "stored into a map or slice element")
	case *ast.SelectorExpr:
		w.scanExpr(l.X, env)
		sel := w.info.Selections[l]
		if sel == nil {
			// Another package's variable (a qualified identifier): a
			// pooled buffer escapes; the retention rules judge this
			// package's stores only.
			w.keep(rhs, env, l.Pos(), "")
			return
		}
		w.keep(rhs, env, l.Pos(), "stored into field "+types.ExprString(l))
		// The snapshot idiom: assigning an owned value over a carrier
		// field (pkt.Payload = append([]byte(nil), pkt.Payload...), or
		// fr.Payload = pool.Snapshot(fr.Payload)) makes the field this
		// function's property for the rest of it.
		if base, ok := unparen(l.X).(*ast.Ident); ok {
			if fields := w.carrier[w.info.Uses[base]]; fields != nil {
				if fv, ok := sel.Obj().(*types.Var); ok {
					if w.callerRetains(rhs) {
						fields[fv] = true
					} else {
						delete(fields, fv)
					}
				}
			}
		}
	case *ast.StarExpr:
		w.scanExpr(l.X, env)
		w.keep(rhs, env, l.Pos(), "")
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		var obj types.Object
		if tok == token.DEFINE {
			obj = w.info.Defs[l]
			if obj == nil {
				// := with a pre-declared variable on the left: it is
				// reassigned, not redeclared.
				obj = w.info.Uses[l]
			}
		} else {
			obj = w.info.Uses[l]
		}
		if obj == nil {
			return
		}
		if tok != token.DEFINE && obj.Parent() == w.pass.Unit.Pkg.Scope() {
			w.keep(rhs, env, l.Pos(), "stored in package-level variable "+l.Name)
			return
		}
		w.handleAssignObj(obj, l.Name, rhs, env)
	}
}

// handleAssignObj binds one local object to the value of rhs.
func (w *bpWalker) handleAssignObj(obj types.Object, name string, rhs ast.Expr, env bpEnv) {
	if obj == nil {
		return
	}
	delete(w.vars, obj)
	delete(w.subs, obj)
	delete(w.callerTainted, obj)
	delete(w.regKeys, obj)
	delete(w.regBufs, obj)
	if m, pc := w.method(rhs, "sim", "BufPool"); m == "Get" || m == "Snapshot" {
		rec := &bpRecord{name: name, src: m, getPos: pc.Pos()}
		w.recs = append(w.recs, rec)
		w.vars[obj] = rec
		env[rec] = bpOwned
		return
	}
	if rec, sub := w.aliasOf(rhs); rec != nil {
		if sub {
			w.subs[obj] = rec
		} else {
			w.vars[obj] = rec
		}
		return
	}
	if w.callerRetains(rhs) {
		w.callerTainted[obj] = true
	}
}

// unbind clears tracking for an assignment target whose new value is
// unknown (multi-value results, range variables).
func (w *bpWalker) unbind(lhs ast.Expr, tok token.Token) {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	var obj types.Object
	if tok == token.DEFINE {
		obj = w.info.Defs[id]
	} else {
		obj = w.info.Uses[id]
	}
	if obj != nil {
		delete(w.vars, obj)
		delete(w.subs, obj)
		delete(w.callerTainted, obj)
		delete(w.regKeys, obj)
		delete(w.regBufs, obj)
	}
}
