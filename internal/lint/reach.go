package lint

// reach.go holds the unit type and collector both interprocedural
// engines share, and the call-graph half of the allocfree engine
// (allocfree.go).
// collectUnits splits the run into analysis units, one per function
// declaration and function literal. allocfree links them by call and
// containment edges and closes reachability from the hot roots,
// recording for each reached unit the chain of calls that makes it
// run. The chain is what turns a finding from "this line allocates"
// into a work item: it names the hot entry point the allocation rides
// on. The ownership engine (ownership.go) builds a CFG per unit and
// looks up callee summaries by static callee instead; it uses no
// edges.
//
// The edges of a unit are every function it calls, including
// interface calls resolved by class-hierarchy analysis over the named
// types of the run, and every literal nested inside its body. A unit's
// edges are computed when the BFS first dequeues it, so unreached
// units cost nothing beyond their collection.

import (
	"go/ast"
	"go/types"
	"strings"
)

// unit is one analysis unit: a declared function or a function
// literal. The trailing fields are per-engine state; each engine
// collects its own units.
type unit struct {
	pkg  *Package
	fn   *types.Func // nil for literals
	lit  *ast.FuncLit
	body *ast.BlockStmt
	sig  *types.Signature
	desc string // for diagnostics: "Node.SendPacket", "literal in Node.SendPacket"

	// allocfree: hot-root marking and BFS discovery.
	root    bool
	rootWhy string // how the unit became a hot root
	reached bool
	from    *unit // BFS discovery parent

	// ownership: the unit's control-flow graph.
	g *cfg
}

// chain renders the discovery path root → … → u for diagnostics and
// the inventory, capped so messages stay readable.
func (u *unit) chain() string {
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

// collectUnits walks pkgs in pre-order and builds a unit per function
// declaration and literal; a literal's description names its
// enclosing unit.
func collectUnits(pkgs []*Package) []*unit {
	var units []*unit
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			var stack []*unit
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				var u *unit
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body == nil {
						return true
					}
					fn, _ := pkg.Info.Defs[n.Name].(*types.Func)
					if fn == nil {
						return true
					}
					u = &unit{
						pkg: pkg, fn: fn, sig: fn.Type().(*types.Signature),
						body: n.Body, desc: funcDesc(fn),
					}
				case *ast.FuncLit:
					sig, _ := pkg.Info.TypeOf(n).(*types.Signature)
					if sig == nil {
						return true
					}
					u = &unit{pkg: pkg, lit: n, sig: sig, body: n.Body, desc: "function literal"}
					if len(stack) > 0 {
						u.desc = "literal in " + stack[len(stack)-1].desc
					}
				default:
					return true
				}
				units = append(units, u)
				stack = append(stack, u)
				ast.Inspect(u.body, walk)
				stack = stack[:len(stack)-1]
				return false
			}
			ast.Inspect(file, walk)
		}
	}
	return units
}

// capturedVars lists, in first-use order, the variables lit references
// but does not declare: every variable other than a struct field or a
// package-level variable. Each engine filters the list: allocfree
// reports any capture as a closure allocation, the ownership engine
// keeps the pooled pointers it tracks.
func capturedVars(pkg *Package, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := pkg.Info.Uses[id].(*types.Var)
		if v == nil || v.IsField() || isPkgLevel(v) || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal (params, locals)
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

// funcFor resolves a call's callee to a *types.Func, or nil when the
// callee is a builtin, a type conversion, or a function value.
func funcFor(pkg *Package, call *ast.CallExpr) *types.Func {
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

// callees lists the units u may transfer control to: static calls,
// interface calls resolved by CHA, and nested literals (which run at
// most as late as their enclosing unit, or escape and are rooted by
// their own annotation).
func (eng *allocEngine) callees(u *unit) []*unit {
	var out []*unit
	ast.Inspect(u.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != u.lit {
			if cu := eng.byLit[lit]; cu != nil {
				out = append(out, cu)
			}
			return false // nested literal bodies are their own units
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := funcFor(u.pkg, call); fn != nil {
			out = append(out, eng.resolve(fn)...)
		}
		return true
	})
	return out
}

// resolve maps a called *types.Func to concrete units: itself when it
// has a body in the run, or — for interface methods — every concrete
// method of a named type in the run that implements the interface.
func (eng *allocEngine) resolve(fn *types.Func) []*unit {
	if u := eng.byFn[fn]; u != nil {
		return []*unit{u}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*unit
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
// run for CHA resolution.
func (eng *allocEngine) collectNamedTypes(pkgs []*Package) {
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
// containment edges, recording discovery parents for chain rendering,
// and sweeps each unit as it is dequeued. Units already marked reached
// before the BFS (the sanctioned pooled constructors) are neither
// descended into nor swept.
func (eng *allocEngine) propagate(units []*unit) {
	var queue []*unit
	for _, u := range units {
		if u.root {
			u.reached = true
			queue = append(queue, u)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		eng.sweep(u)
		for _, to := range eng.callees(u) {
			if to.reached {
				continue
			}
			to.reached = true
			to.from = u
			queue = append(queue, to)
		}
	}
}
