package lint

// owneval.go is the transfer function of the ownership analysis: how
// one AST node transforms the fact map. The walk deliberately does
// not descend into function literals — a literal is its own analysis
// unit (ownership.go); here only the act of capturing is modeled.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

type ownEval struct {
	u   *unit
	eng *ownEngine

	// facts is the state being transformed; swapped per block by the
	// fixpoint driver.
	facts ownFacts

	// emit is nil during fixpoint rounds and set for the final
	// reporting walk.
	emit func(ownFinding)

	// Unit-level bookkeeping, idempotent across fixpoint rounds: where
	// each variable was last allocated / released / handed off, which
	// variables are range-loop variables, and which have a deferred
	// release (exempt from the exit leak check).
	allocSite    map[*types.Var]token.Pos
	eventSite    map[*types.Var]token.Pos
	rangeVars    map[*types.Var]bool
	deferRelease map[*types.Var]bool

	// retMasks accumulates the state of pooled results at each return,
	// by result index; only populated during the final walk.
	retMasks map[int]stateMask
}

func (ev *ownEval) reportf(kind ownKind, pos token.Pos, format string, args ...any) {
	if ev.emit == nil {
		return
	}
	ev.emit(ownFinding{kind: kind, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// site renders a position as file:line for embedding in messages.
func (ev *ownEval) site(pos token.Pos) string {
	p := ev.u.pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", ev.u.pkg.relPath(p.Filename), p.Line)
}

// trackedVar resolves e to a tracked pooled variable, or nil.
func (ev *ownEval) trackedVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := ev.u.pkg.Info.Uses[id]
	if obj == nil {
		obj = ev.u.pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || !isTrackable(ev.u.pkg, v) {
		return nil
	}
	return v
}

// ---- statement dispatch -------------------------------------------------

func (ev *ownEval) node(n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		ev.assign(n)
	case *ast.ReturnStmt:
		ev.ret(n)
	case *ast.RangeStmt:
		ev.rangeHead(n)
	case *ast.ExprStmt:
		ev.exprStmt(n)
	case *ast.IncDecStmt:
		ev.expr(n.X)
	case *ast.SendStmt:
		ev.expr(n.Chan)
		ev.handoff(n.Value, "sent on a channel")
	case *ast.DeclStmt:
		ev.decl(n)
	case *ast.DeferStmt:
		ev.deferCall(n.Call)
	case *ast.GoStmt:
		ev.goCall(n.Call)
	case ast.Expr:
		ev.expr(n)
	}
}

// exprStmt evaluates a call-for-effect; discarding an owned pooled
// result is a leak at the call site.
func (ev *ownEval) exprStmt(s *ast.ExprStmt) {
	call, ok := ast.Unparen(s.X).(*ast.CallExpr)
	if !ok {
		ev.expr(s.X)
		return
	}
	for _, m := range ev.callResults(call) {
		if m&stOwned != 0 {
			ev.reportf(kindLeak, call.Pos(),
				"pooled packet allocated and immediately discarded in %s: the owned result is never released or handed off", ev.u.desc)
		}
	}
}

func (ev *ownEval) decl(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		ev.bind(identExprs(vs.Names), vs.Values, token.DEFINE, s.Pos())
	}
}

func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

func (ev *ownEval) assign(s *ast.AssignStmt) {
	ev.bind(s.Lhs, s.Rhs, s.Tok, s.Pos())
}

// bind applies an assignment or declaration: compute the state of
// each right-hand value, then rebind or escape each left-hand target.
func (ev *ownEval) bind(lhs, rhs []ast.Expr, tok token.Token, pos token.Pos) {
	masks := make([]stateMask, len(lhs))
	switch {
	case len(rhs) == 1 && len(lhs) > 1:
		// Multi-value: a call, type assertion, or map index.
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			res := ev.callResults(call)
			copy(masks, res)
		} else {
			ev.expr(rhs[0])
			for i, l := range lhs {
				if t := ev.u.pkg.Info.TypeOf(l); t != nil && isPooledPtr(t) {
					masks[i] = stUnknown
				}
			}
		}
	default:
		for i, r := range rhs {
			if i < len(masks) {
				masks[i] = ev.rhsMask(r)
			} else {
				ev.expr(r)
			}
		}
	}
	for i, l := range lhs {
		l = ast.Unparen(l)
		if id, ok := l.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			v := ev.trackedVar(id)
			if v == nil {
				continue // assignment to a non-pooled variable is not a use
			}
			old := ev.facts[v]
			if tok == token.ASSIGN && old&stOwned != 0 && old&(stUnknown|stCaptured) == 0 {
				ev.reportf(kindLeak, id.Pos(),
					"pooled packet %s overwritten while still owned (allocated at %s): the old packet leaks",
					v.Name(), ev.site(ev.allocSite[v]))
			}
			ev.facts[v] = masks[i]
			if masks[i]&stOwned != 0 {
				ev.allocSite[v] = id.Pos()
			}
			continue
		}
		// Storing through a field, index, or dereference target: the
		// target expression's identifiers are uses; a tracked RHS value
		// escapes into shared storage.
		ev.expr(l)
		if i < len(rhs) {
			if v := ev.trackedVar(rhs[i]); v != nil {
				ev.escape(v, rhs[i].Pos(), "stored into shared storage")
			}
		}
	}
}

// rhsMask evaluates one right-hand expression and reports the state
// of the resulting value (0 = untracked: the variable leaves the
// analysis, e.g. a plain &Packet{} literal the pool never owns).
func (ev *ownEval) rhsMask(r ast.Expr) stateMask {
	r = ast.Unparen(r)
	switch r := r.(type) {
	case *ast.CallExpr:
		res := ev.callResults(r)
		if len(res) > 0 {
			return res[0]
		}
		return 0
	case *ast.Ident:
		if v := ev.trackedVar(r); v != nil {
			// Aliasing: two names for one packet defeats the per-variable
			// state map, so both sides widen to unknown.
			ev.useVar(v, r.Pos())
			ev.facts[v] = stUnknown
			return stUnknown
		}
		return 0
	case *ast.TypeAssertExpr:
		ev.expr(r.X)
		if t := ev.u.pkg.Info.TypeOf(r); t != nil && isPooledPtr(t) {
			return stUnknown
		}
		return 0
	default:
		ev.expr(r)
		if t := ev.u.pkg.Info.TypeOf(r); t != nil && isPooledPtr(t) {
			// A pooled pointer from a source the engine cannot model
			// (field read, map/slice element, channel receive).
			return stUnknown
		}
		return 0
	}
}

func (ev *ownEval) ret(s *ast.ReturnStmt) {
	for i, res := range s.Results {
		v := ev.trackedVar(res)
		if v == nil {
			if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
				// return f(...): pass the callee's result states through
				// (positionally for the single-expression spread form).
				rm := ev.callResults(call)
				if ev.retMasks != nil {
					if len(s.Results) == 1 {
						for j, m := range rm {
							ev.retMasks[j] |= m
						}
					} else if len(rm) == 1 {
						ev.retMasks[i] |= rm[0]
					}
				}
				continue
			}
			ev.expr(res)
			if t := ev.u.pkg.Info.TypeOf(res); t != nil && isPooledPtr(t) && ev.retMasks != nil {
				ev.retMasks[i] |= stUnknown
			}
			continue
		}
		mask := ev.facts[v]
		ev.useVar(v, res.Pos())
		if mask&stCaptured != 0 {
			ev.reportf(kindStaleConsume, res.Pos(),
				"pooled packet %s returned while a scheduled callback still captures it (captured at %s)",
				v.Name(), ev.site(ev.eventSite[v]))
		}
		if ev.retMasks != nil {
			ev.retMasks[i] |= mask
		}
		// Ownership (whatever this frame had) moves to the caller.
		ev.facts[v] = stHandedOff
		ev.eventSite[v] = res.Pos()
	}
}

func (ev *ownEval) rangeHead(s *ast.RangeStmt) {
	ev.expr(s.X)
	for _, e := range []ast.Expr{s.Key, s.Value} {
		if e == nil {
			continue
		}
		if v := ev.trackedVar(e); v != nil {
			// Elements looked at through a range are borrowed views into
			// the container; the per-iteration variable is also exactly
			// the thing a scheduled callback must not capture.
			ev.facts[v] = stBorrowed
			ev.rangeVars[v] = true
		}
	}
}

// ---- expression walk ----------------------------------------------------

func (ev *ownEval) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if v := ev.trackedVar(e); v != nil {
			ev.useVar(v, e.Pos())
		}
	case *ast.ParenExpr:
		ev.expr(e.X)
	case *ast.CallExpr:
		ev.callResults(e)
	case *ast.SelectorExpr:
		ev.expr(e.X)
	case *ast.StarExpr:
		ev.expr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if v := ev.trackedVar(e.X); v != nil {
				ev.escape(v, e.Pos(), "address taken")
				return
			}
		}
		ev.expr(e.X)
	case *ast.BinaryExpr:
		ev.cmpOperand(e.X, e.Op)
		ev.cmpOperand(e.Y, e.Op)
	case *ast.IndexExpr:
		ev.expr(e.X)
		ev.expr(e.Index)
	case *ast.SliceExpr:
		ev.expr(e.X)
		ev.expr(e.Low)
		ev.expr(e.High)
		ev.expr(e.Max)
	case *ast.TypeAssertExpr:
		ev.expr(e.X)
	case *ast.KeyValueExpr:
		ev.expr(e.Key)
		ev.expr(e.Value)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if v := ev.trackedVar(val); v != nil {
				ev.escape(v, val.Pos(), "stored in a composite literal")
				continue
			}
			ev.expr(elt)
		}
	case *ast.FuncLit:
		// A literal not passed to a scheduling entry: invocation time is
		// unknowable here, so captured pooled state widens to unknown.
		ev.capture(e, false, "")
	}
}

// cmpOperand: comparing a pooled pointer (against nil or another
// pointer) is not a dereference — Go permits comparing dangling
// pointers — so comparisons are exempt from the use check.
func (ev *ownEval) cmpOperand(e ast.Expr, op token.Token) {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		if ev.trackedVar(e) != nil {
			return
		}
	}
	ev.expr(e)
}

// useVar reports a touch of a variable that may already be dead.
func (ev *ownEval) useVar(v *types.Var, pos token.Pos) {
	mask := ev.facts[v]
	if mask&stReleased != 0 {
		ev.reportf(kindUseAfterRelease, pos,
			"pooled packet %s used after release (released at %s): a released packet may already be recycled for another flow",
			v.Name(), ev.site(ev.eventSite[v]))
	} else if mask&stHandedOff != 0 {
		ev.reportf(kindUseAfterHandoff, pos,
			"pooled packet %s used after ownership hand-off (handed off at %s): the new owner may free or rewrite it",
			v.Name(), ev.site(ev.eventSite[v]))
	}
}

// escape: the packet's address got out of the engine's sight; its
// ownership obligations transfer with it.
func (ev *ownEval) escape(v *types.Var, pos token.Pos, how string) {
	ev.useVar(v, pos)
	ev.facts[v] = stHandedOff
	ev.eventSite[v] = pos
}

// handoff marks an explicit ownership transfer of a value expression.
func (ev *ownEval) handoff(e ast.Expr, how string) {
	if v := ev.trackedVar(e); v != nil {
		ev.useVar(v, e.Pos())
		if ev.facts[v]&stCaptured != 0 {
			ev.reportf(kindStaleConsume, e.Pos(),
				"pooled packet %s %s while a scheduled callback still captures it (captured at %s)",
				v.Name(), how, ev.site(ev.eventSite[v]))
		}
		ev.facts[v] = stHandedOff
		ev.eventSite[v] = e.Pos()
		return
	}
	ev.expr(e)
}

// ---- calls --------------------------------------------------------------

// callResults evaluates a call's effects and returns the state of
// each pooled result (by result index; 0 for untracked results).
func (ev *ownEval) callResults(c *ast.CallExpr) []stateMask {
	info := ev.u.pkg.Info

	// Type conversions: Pooled(x) cannot occur (pointer conversions to
	// a pool type do not exist in the tree), but walk operands anyway.
	if tv, ok := info.Types[c.Fun]; ok && tv.IsType() {
		for _, a := range c.Args {
			ev.expr(a)
		}
		return nil
	}
	// Builtins.
	if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return ev.builtinCall(id.Name, c)
		}
	}

	fn := funcFor(ev.u.pkg, c)

	// Scheduling entries: function literal arguments outlive this
	// frame — the heart of the stalecapture analyzer.
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == simPkg && isSchedulingEntry(fn) {
		for _, a := range c.Args {
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				ev.capture(lit, true, fn.Name())
				continue
			}
			ev.expr(a)
		}
		return nil
	}

	// Walk the callee expression (method receiver or function value).
	var recvVar *types.Var
	switch fun := ast.Unparen(c.Fun).(type) {
	case *ast.SelectorExpr:
		recvVar = ev.trackedVar(fun.X)
		ev.expr(fun.X)
	case *ast.Ident:
		// plain function name: nothing to walk
	default:
		ev.expr(c.Fun)
	}

	var seededAlloc, seededRelease, seededConsume bool
	var sum *ownSummary
	if fn != nil {
		key := funcKey(fn)
		seededAlloc = ownAllocs[key]
		seededRelease = ownReleases[key]
		seededConsume = ownConsumes[key]
		sum = ev.eng.summaries[fn]
	}

	// Receiver effect (methods on the pooled type itself, e.g. Clone).
	if recvVar != nil && sum != nil && sum.recv != 0 {
		ev.facts[recvVar] = applySummary(ev.facts[recvVar], sum.recv)
	}

	// Argument effects.
	var sig *types.Signature
	if fn != nil {
		sig, _ = fn.Type().(*types.Signature)
	}
	for i, a := range c.Args {
		v := ev.trackedVar(a)
		if v == nil {
			ev.expr(a)
			continue
		}
		mask := ev.facts[v]
		if seededRelease {
			switch {
			case mask&stReleased != 0:
				ev.reportf(kindDoubleRelease, a.Pos(),
					"pooled packet %s released twice (first released at %s): double-free corrupts the free list",
					v.Name(), ev.site(ev.eventSite[v]))
			case mask&stHandedOff != 0:
				ev.reportf(kindUseAfterHandoff, a.Pos(),
					"pooled packet %s released after ownership hand-off (handed off at %s): this frame no longer owns it",
					v.Name(), ev.site(ev.eventSite[v]))
			case mask&stCaptured != 0:
				ev.reportf(kindStaleConsume, a.Pos(),
					"pooled packet %s released while a scheduled callback still captures it (captured at %s): the callback will touch a recycled packet",
					v.Name(), ev.site(ev.eventSite[v]))
			}
			ev.facts[v] = stReleased
			ev.eventSite[v] = a.Pos()
			continue
		}
		ev.useVar(v, a.Pos())
		if seededConsume {
			if mask&stCaptured != 0 {
				ev.reportf(kindStaleConsume, a.Pos(),
					"pooled packet %s handed off while a scheduled callback still captures it (captured at %s)",
					v.Name(), ev.site(ev.eventSite[v]))
			}
			ev.facts[v] = stHandedOff
			ev.eventSite[v] = a.Pos()
			continue
		}
		if fn == nil {
			// Dynamic call through a function value: the documented
			// handler convention (taps, filters, transport callbacks) is
			// that callees borrow — the caller keeps ownership.
			continue
		}
		if sum != nil {
			idx := i
			if sig != nil && sig.Variadic() && idx >= sig.Params().Len()-1 {
				idx = sig.Params().Len() - 1
			}
			if pm, ok := sum.params[idx]; ok {
				nm := applySummary(mask, pm)
				if nm != mask {
					ev.facts[v] = nm
					if nm&(stReleased|stHandedOff) != 0 {
						ev.eventSite[v] = a.Pos()
					}
				}
				continue
			}
			continue
		}
		if seededAlloc || isInterfaceMethod(fn) {
			// Seeded allocators borrow their operands (clone sources);
			// interface methods follow the borrow convention like
			// function values do.
			continue
		}
		// Callee with no summary (std lib, or a package outside this
		// run): give up tracking rather than guess.
		ev.facts[v] = stUnknown
	}

	// Result states.
	if sig == nil {
		return nil
	}
	res := make([]stateMask, sig.Results().Len())
	for i := range res {
		if !isPooledPtr(sig.Results().At(i).Type()) {
			continue
		}
		switch {
		case seededAlloc:
			res[i] = stOwned
		case sum != nil:
			res[i] = mapResultMask(sum.results[i])
		default:
			res[i] = stUnknown
		}
	}
	return res
}

func (ev *ownEval) builtinCall(name string, c *ast.CallExpr) []stateMask {
	switch name {
	case "append":
		if len(c.Args) > 0 {
			ev.expr(c.Args[0])
			for _, a := range c.Args[1:] {
				if v := ev.trackedVar(a); v != nil {
					ev.escape(v, a.Pos(), "appended to a slice")
					continue
				}
				ev.expr(a)
			}
		}
	case "make", "new":
		for _, a := range c.Args[1:] { // first arg is a type
			ev.expr(a)
		}
	default:
		for _, a := range c.Args {
			ev.expr(a)
		}
	}
	return nil
}

func (ev *ownEval) deferCall(c *ast.CallExpr) {
	fn := funcFor(ev.u.pkg, c)
	if fn != nil && ownReleases[funcKey(fn)] {
		// defer release: runs on every exit path, so the deferred
		// variable is exempt from the exit leak check. The release
		// effect itself is not applied mid-function — the packet stays
		// usable until return.
		if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
			ev.expr(sel.X)
		}
		for _, a := range c.Args {
			if v := ev.trackedVar(a); v != nil {
				ev.deferRelease[v] = true
				continue
			}
			ev.expr(a)
		}
		return
	}
	// Other deferred calls: apply effects immediately (conservative —
	// they run before the frame dies either way).
	ev.callResults(c)
}

func (ev *ownEval) goCall(c *ast.CallExpr) {
	// schedblock already bans goroutines in simulation code; for
	// ownership purposes everything a goroutine touches is unknowable.
	ev.expr(c.Fun)
	for _, a := range c.Args {
		if v := ev.trackedVar(a); v != nil {
			ev.facts[v] = stUnknown
			continue
		}
		ev.expr(a)
	}
}

// ---- captures -----------------------------------------------------------

// capture models a function literal closing over pooled variables.
// scheduled literals (Schedule*/NewTicker arguments) run after this
// frame returns, under the slot/generation kernel — so capturing
// anything this frame merely borrows is a lifetime bug.
func (ev *ownEval) capture(lit *ast.FuncLit, scheduled bool, entry string) {
	for _, v := range capturedVars(ev.u.pkg, lit) {
		mask := ev.facts[v]
		if mask == 0 {
			continue // untracked here (not pooled, or a non-pooled-origin packet)
		}
		if !scheduled {
			// Plain closure: invocation time unknown; stop tracking
			// owned/borrowed state rather than guess.
			if mask&(stOwned|stBorrowed) != 0 {
				ev.facts[v] = stUnknown
			}
			continue
		}
		kindNote := ""
		if ev.rangeVars[v] {
			kindNote = "loop-variable "
		}
		switch {
		case mask&(stReleased|stHandedOff) != 0:
			ev.reportf(kindStaleDead, lit.Pos(),
				"%s callback captures %spooled packet %s already dead at capture time (released/handed off at %s)",
				entry, kindNote, v.Name(), ev.site(ev.eventSite[v]))
		case mask&stBorrowed != 0:
			// The borrow ends when this frame returns, which is before
			// the scheduled event can fire.
			ev.reportf(kindStaleBorrow, lit.Pos(),
				"%s callback captures borrowed %spooled packet %s: the borrow ends when %s returns, before the event fires — clone it or transfer ownership into the callback",
				entry, kindNote, v.Name(), ev.u.desc)
			// Treat ownership as moved into the callback so the rest of
			// the frame is checked against touching it again.
			ev.facts[v] = stHandedOff
			ev.eventSite[v] = lit.Pos()
		case mask == stOwned || mask == stOwned|stCaptured:
			// Owned and captured: legal as long as the owner does not
			// release before the event fires — tracked via stCaptured.
			ev.facts[v] = mask | stCaptured
			ev.eventSite[v] = lit.Pos()
		default:
			// Unknown (or mixed with unknown): no report without a
			// definite fact, but stop tracking.
			ev.facts[v] = stUnknown
		}
	}
}

// ---- summary application ------------------------------------------------

// applySummary maps a callee's exit mask for a parameter onto the
// caller's current mask for the argument.
func applySummary(cur, exit stateMask) stateMask {
	if exit == 0 || exit == stBorrowed {
		return cur // pure borrow: caller state unchanged
	}
	if exit&stUnknown != 0 {
		return stUnknown
	}
	consumed := exit & (stReleased | stHandedOff)
	if consumed != 0 {
		if exit&^(stReleased|stHandedOff) != 0 {
			return stUnknown // consumed on some paths only
		}
		return consumed
	}
	if exit&stCaptured != 0 {
		return stUnknown // a callback somewhere still holds it
	}
	// Remaining bits are owned/borrowed rebinding artifacts inside the
	// callee; the caller's pointer itself was only borrowed.
	return cur
}

// mapResultMask maps a callee's return mask to the caller's view of
// the result value.
func mapResultMask(m stateMask) stateMask {
	if m&stOwned != 0 && m&(stBorrowed|stUnknown|stHandedOff|stReleased) == 0 {
		return stOwned
	}
	return stUnknown
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}
