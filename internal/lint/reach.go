package lint

// reach.go is the handler-reachability half of the shard-confinement
// engine (confine.go): it decides which functions can execute at
// event time — on the scheduler loop — and records, for each one,
// the chain of calls that makes it reachable. The chain is what
// turns a finding from "this line writes shared state" into a work
// item: it names the scheduled callback that has to be re-routed
// through the message path.
//
// Handler roots are discovered syntactically, then closed over the
// call graph:
//
//   - function literals and method values passed to the scheduler's
//     entry points (sim.Scheduler.Schedule*, sim.NewTicker) — the
//     precise roots;
//   - function values that escape into module code any other way
//     (stored in a struct field or variable, passed to a
//     module-internal call, returned): the engine cannot see when
//     those run, so it assumes event time. Literals handed to
//     standard-library callees (sort.Slice and friends) are exempt —
//     the stdlib never schedules simulator events, it only calls back
//     synchronously. Literals handed to a ConfineConfig.Barriers
//     runner (Scheduler.Barrier) are likewise synchronous, but their
//     bodies are remembered as barrier context: mutations inside them
//     are the sanctioned control-plane idiom;
//   - every function a reachable unit calls, including interface
//     calls resolved by class-hierarchy analysis over the named types
//     of the run, and every literal nested inside a reachable body.
//
// Packages listed in ConfineConfig.ExemptPkgs (the cmd/ drivers, the
// facade, the report runner) never contribute roots: their closures
// run on the host, off the simulated clock. Functions in them are
// still analyzed when a real handler reaches into them.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// confUnit is one analysis unit of the confinement engine: a declared
// function or a function literal.
type confUnit struct {
	pkg  *Package
	fn   *types.Func // nil for literals
	lit  *ast.FuncLit
	body *ast.BlockStmt
	sig  *types.Signature
	recv *types.Var
	desc string
	encl *confUnit // lexically enclosing unit, for literals

	root    bool
	rootWhy string // how the unit became a handler root

	// barrier marks a literal handed to a ConfineConfig.Barriers
	// runner: its body is a marked control-plane mutation, so its
	// cross-partition mutations are inventoried, not reported.
	barrier bool

	reached bool
	from    *confUnit // BFS discovery parent
	fromPos token.Pos // call/containment site on the discovery path
}

// inBarrier reports whether the unit's body executes in barrier
// context: it is, or is lexically inside, a barrier-runner literal,
// with no handler-root boundary in between. A root in the lexical
// chain cuts the context — a callback armed inside a barrier body is
// scheduled work that runs later, outside the barrier.
func (u *confUnit) inBarrier() bool {
	for cur := u; cur != nil; cur = cur.encl {
		if cur.barrier {
			return true
		}
		if cur.root {
			return false
		}
	}
	return false
}

// chain renders the discovery path root → … → u for diagnostics and
// the inventory, capped so messages stay readable.
func (u *confUnit) chain() string {
	var parts []string
	for cur := u; cur != nil; cur = cur.from {
		parts = append(parts, cur.desc)
		if cur.from == nil && cur.rootWhy != "" {
			parts = append(parts, cur.rootWhy)
		}
	}
	// Reverse into root-first order.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	if len(parts) > 5 {
		parts = append(parts[:2], append([]string{"…"}, parts[len(parts)-2:]...)...)
	}
	return strings.Join(parts, " → ")
}

// collectConfUnits walks pkg and builds a unit per function
// declaration and literal, recording lexical nesting.
func (eng *confEngine) collectConfUnits(pkg *Package) []*confUnit {
	var units []*confUnit
	for _, file := range pkg.Files {
		var stack []*confUnit
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return true
				}
				fn, _ := pkg.Info.Defs[n.Name].(*types.Func)
				if fn == nil {
					return true
				}
				sig := fn.Type().(*types.Signature)
				u := &confUnit{
					pkg: pkg, fn: fn, sig: sig, recv: sig.Recv(),
					body: n.Body, desc: funcDesc(fn),
				}
				units = append(units, u)
				eng.byFn[fn] = u
				stack = append(stack, u)
				ast.Inspect(n.Body, walk)
				stack = stack[:len(stack)-1]
				return false
			case *ast.FuncLit:
				sig, _ := pkg.Info.TypeOf(n).(*types.Signature)
				if sig == nil {
					return true
				}
				u := &confUnit{
					pkg: pkg, lit: n, sig: sig, body: n.Body,
					desc: "function literal",
				}
				if len(stack) > 0 {
					u.encl = stack[len(stack)-1]
					u.desc = fmt.Sprintf("literal in %s", u.encl.desc)
				}
				units = append(units, u)
				eng.byLit[n] = u
				stack = append(stack, u)
				ast.Inspect(n.Body, walk)
				stack = stack[:len(stack)-1]
				return false
			}
			return true
		}
		ast.Inspect(file, walk)
	}
	return units
}

// markRoots scans pkg for handler roots. Function values in call
// position are classified by their callee: scheduler entries make
// precise roots, other module-internal (or unresolvable) callees make
// escaping roots, standard-library callees are synchronous. Function
// values anywhere else — assignments, composite literals, returns —
// escape.
func (eng *confEngine) markRoots(pkg *Package) {
	if eng.isExemptPkg(pkg.Path) {
		return
	}
	// decided records literals and func-valued expressions whose fate a
	// parent CallExpr already chose, so the default escape rule below
	// does not double-classify them.
	decided := make(map[ast.Node]bool)
	pos := func(p token.Pos) string {
		position := pkg.Fset.Position(p)
		return fmt.Sprintf("%s:%d", pkg.relPath(position.Filename), position.Line)
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				decided[ast.Unparen(n.Fun)] = true // call position, not a value
				callee := eng.funcFor(pkg, n)
				sched := callee != nil && callee.Pkg() != nil &&
					callee.Pkg().Path() == eng.cfg.SchedPkg && isSchedulingEntry(callee)
				barrier := callee != nil && eng.cfg.Barriers[funcKey(callee)]
				sync := callee != nil && callee.Pkg() != nil && !eng.inModule(callee.Pkg().Path())
				for _, arg := range n.Args {
					arg = ast.Unparen(arg)
					fv := eng.funcValue(pkg, arg)
					if fv == nil {
						continue
					}
					decided[arg] = true
					switch {
					case barrier:
						// Barrier-runner argument: runs synchronously on
						// the caller's context with the world stopped —
						// not a root; reached (if at all) through its
						// enclosing unit, and reported in barrier mode.
						fv.barrier = true
					case sched:
						eng.setRoot(fv, fmt.Sprintf("scheduled callback (%s.%s at %s)",
							pathBase(eng.cfg.SchedPkg), callee.Name(), pos(arg.Pos())))
					case sync:
						// Standard-library higher-order callee: the
						// callback runs synchronously, on the caller's
						// context.
					default:
						eng.setRoot(fv, fmt.Sprintf("callback escaping at %s", pos(arg.Pos())))
					}
				}
			case *ast.FuncLit:
				if decided[n] {
					return true
				}
				decided[n] = true
				if u := eng.byLit[n]; u != nil {
					eng.setRootUnit(u, fmt.Sprintf("callback escaping at %s", pos(n.Pos())))
				}
			case *ast.SelectorExpr:
				// The Sel ident is part of this selector, never an
				// independent function value of its own.
				decided[n.Sel] = true
				if decided[n] {
					return true
				}
				fn, isValue := eng.methodValue(pkg, n)
				if isValue && fn != nil {
					decided[n] = true
					eng.setRoot(eng.byFn[fn], fmt.Sprintf("bound callback taken at %s", pos(n.Pos())))
				}
			case *ast.Ident:
				if decided[n] {
					return true
				}
				fn, isValue := eng.methodValue(pkg, n)
				if isValue && fn != nil {
					decided[n] = true
					eng.setRoot(eng.byFn[fn], fmt.Sprintf("bound callback taken at %s", pos(n.Pos())))
				}
			}
			return true
		})
	}
}

// funcValue resolves an expression used as a function value: a
// literal, or a reference to a declared function or method. Returns a
// *confUnit-convertible handle (the unit for a literal, the unit of
// the named function), or nil.
func (eng *confEngine) funcValue(pkg *Package, e ast.Expr) *confUnit {
	switch e := e.(type) {
	case *ast.FuncLit:
		return eng.byLit[e]
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return eng.byFn[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return eng.byFn[fn]
		}
	}
	return nil
}

// methodValue reports whether e references a declared function or
// method as a value (method-value idiom: da.finishTx, c.accept).
func (eng *confEngine) methodValue(pkg *Package, e ast.Expr) (*types.Func, bool) {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil, false
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !eng.inModule(fn.Pkg().Path()) {
		return nil, false
	}
	// Only functions with bodies in this run can be roots.
	if eng.byFn[fn] == nil {
		return nil, false
	}
	return fn, true
}

func (eng *confEngine) setRoot(u *confUnit, why string) {
	if u != nil {
		eng.setRootUnit(u, why)
	}
}

func (eng *confEngine) setRootUnit(u *confUnit, why string) {
	if u.root || eng.isExemptPkg(u.pkg.Path) {
		return
	}
	u.root = true
	u.rootWhy = why
}

// funcFor resolves a call's callee like Pass.FuncFor, without a Pass.
func (eng *confEngine) funcFor(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// inModule reports whether path belongs to the module under analysis.
func (eng *confEngine) inModule(path string) bool {
	return path == eng.cfg.Module || strings.HasPrefix(path, eng.cfg.Module+"/")
}

func (eng *confEngine) isExemptPkg(path string) bool {
	for prefix := range eng.cfg.ExemptPkgs {
		if path == prefix || strings.HasPrefix(path, prefix+"/") {
			return true
		}
	}
	return false
}

// callees lists the units u may transfer control to: static calls,
// interface calls resolved by CHA, and nested literals (which run at
// most as late as their enclosing handler, or escape and become roots
// of their own).
func (eng *confEngine) callees(u *confUnit) []calleeEdge {
	var out []calleeEdge
	ast.Inspect(u.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != u.lit {
			if cu := eng.byLit[lit]; cu != nil {
				out = append(out, calleeEdge{to: cu, pos: lit.Pos()})
			}
			return false // nested literal bodies are their own units
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := eng.funcFor(u.pkg, call)
		if fn == nil {
			return true
		}
		for _, target := range eng.resolve(fn) {
			out = append(out, calleeEdge{to: target, pos: call.Pos()})
		}
		return true
	})
	return out
}

type calleeEdge struct {
	to  *confUnit
	pos token.Pos
}

// resolve maps a called *types.Func to concrete units: itself when it
// has a body in the run, or — for interface methods — every concrete
// method of a named type in the run that implements the interface.
func (eng *confEngine) resolve(fn *types.Func) []*confUnit {
	if u := eng.byFn[fn]; u != nil {
		return []*confUnit{u}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*confUnit
	for _, named := range eng.namedTypes {
		if !implementsIface(named, iface) {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() == fn.Name() {
				if u := eng.byFn[m]; u != nil {
					out = append(out, u)
				}
			}
		}
	}
	return out
}

// implementsIface reports whether named (or *named) implements iface.
func implementsIface(named *types.Named, iface *types.Interface) bool {
	if iface.Empty() {
		return false
	}
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

// collectNamedTypes gathers the named (non-interface) types of the
// run for CHA resolution and interface provenance checks.
func (eng *confEngine) collectNamedTypes(pkgs []*Package) {
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			eng.namedTypes = append(eng.namedTypes, named)
		}
	}
}

// propagate closes reachability: BFS from the roots over call and
// containment edges, recording discovery parents for chain rendering.
func (eng *confEngine) propagate() {
	var queue []*confUnit
	for _, u := range eng.units {
		if u.root {
			u.reached = true
			queue = append(queue, u)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range eng.callees(u) {
			if e.to.reached {
				continue
			}
			e.to.reached = true
			e.to.from = u
			e.to.fromPos = e.pos
			queue = append(queue, e.to)
		}
	}
}
