package lint

// reach.go is the call-graph half of the allocfree engine
// (allocfree.go): it splits the run into analysis units, links them
// by call and containment edges, and closes reachability from the hot
// roots, recording for each reached unit the chain of calls that
// makes it run. The chain is what turns a finding from "this line
// allocates" into a work item: it names the hot entry point the
// allocation rides on.
//
// The edges of a unit are every function it calls, including
// interface calls resolved by class-hierarchy analysis over the named
// types of the run, and every literal nested inside its body.

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// allocUnit is one analysis unit of the allocfree engine: a declared
// function or a function literal.
type allocUnit struct {
	pkg  *Package
	fn   *types.Func // nil for literals
	lit  *ast.FuncLit
	body *ast.BlockStmt
	sig  *types.Signature
	desc string

	root    bool
	rootWhy string // how the unit became a hot root

	reached bool
	from    *allocUnit // BFS discovery parent
}

// chain renders the discovery path root → … → u for diagnostics and
// the inventory, capped so messages stay readable.
func (u *allocUnit) chain() string {
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

// collectUnits walks pkg and builds a unit per function declaration
// and literal; a literal's description names its enclosing unit.
func (eng *allocEngine) collectUnits(pkg *Package) []*allocUnit {
	var units []*allocUnit
	for _, file := range pkg.Files {
		var stack []*allocUnit
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
				u := &allocUnit{
					pkg: pkg, fn: fn, sig: fn.Type().(*types.Signature),
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
				u := &allocUnit{
					pkg: pkg, lit: n, sig: sig, body: n.Body,
					desc: "function literal",
				}
				if len(stack) > 0 {
					u.desc = fmt.Sprintf("literal in %s", stack[len(stack)-1].desc)
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
func (eng *allocEngine) callees(u *allocUnit) []*allocUnit {
	var out []*allocUnit
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
func (eng *allocEngine) resolve(fn *types.Func) []*allocUnit {
	if u := eng.byFn[fn]; u != nil {
		return []*allocUnit{u}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*allocUnit
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

// propagate closes reachability: BFS from the roots over the cached
// call and containment edges, recording discovery parents for chain
// rendering.
func (eng *allocEngine) propagate() {
	var queue []*allocUnit
	for _, u := range eng.units {
		if u.root {
			u.reached = true
			queue = append(queue, u)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, to := range eng.edges[u] {
			if to.reached {
				continue
			}
			to.reached = true
			to.from = u
			queue = append(queue, to)
		}
	}
}
