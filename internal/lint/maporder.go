package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `range` over map-typed expressions whose loop body
// has side effects, in every package outside cmd/. Map iteration order
// is randomized per run, so any observable work done per iteration — a
// call that schedules events or draws from the shared RNG, a send, an
// append into an outer slice — executes in a different order every run
// and breaks same-seed reproducibility. The drivers under cmd/ are
// skipped: cmd/bench measures wall time and cmd/simlint is the
// linter's own front end.
//
// Order-independent loops (integer and bitwise reductions,
// collect-then-sort) carry a //simlint:allow maporder(reason)
// annotation instead. A float sum is not one: float addition is not
// associative.
type MapOrder struct{}

// NewMapOrder returns the analyzer.
func NewMapOrder() *MapOrder { return &MapOrder{} }

func (m *MapOrder) Name() string { return "maporder" }

func (m *MapOrder) Doc() string {
	return "forbid side-effecting range over maps outside cmd/"
}

func (m *MapOrder) Run(pass *Pass) {
	if strings.HasPrefix(pass.Pkg.relPath(pass.Pkg.Dir), "cmd/") {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if reason := firstSideEffect(pass, rs); reason != "" {
				pass.Reportf(m.Name(), rs.For,
					"range over map %s %s per iteration; map order is randomized — iterate sorted keys, or annotate //simlint:allow maporder(reason) if provably order-independent",
					exprString(pass, rs.X), reason)
			}
			return true
		})
	}
}

// firstSideEffect scans a map-range body and describes the first
// order-sensitive operation found, or returns "". Function literals
// are not descended into: defining a closure has no effect until it
// is called, and the call site is what gets flagged.
func firstSideEffect(pass *Pass, rs *ast.RangeStmt) string {
	var reason string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			reason = "sends on a channel"
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reason = "receives from a channel"
				return false
			}
		case *ast.GoStmt:
			reason = "spawns a goroutine"
			return false
		case *ast.DeferStmt:
			reason = "defers a call"
			return false
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if ok && isBuiltin(pass, call, "append") && assignsOutside(pass, n.Lhs, rs) {
					reason = "appends to outer scope"
					return false
				}
			}
		case *ast.CallExpr:
			if r := callEffect(pass, n); r != "" {
				reason = r
				return false
			}
		}
		return true
	})
	return reason
}

// pureBuiltins never observe iteration order.
var pureBuiltins = map[string]bool{
	"len": true, "cap": true, "make": true, "new": true,
	"min": true, "max": true, "real": true, "imag": true, "complex": true,
	"append": true, // order sensitivity is judged at the assignment, not the call
}

func callEffect(pass *Pass, call *ast.CallExpr) string {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); ok {
			if pureBuiltins[b.Name()] {
				return ""
			}
			return "calls builtin " + b.Name()
		}
	}
	if tv, ok := pass.Pkg.Info.Types[fun]; ok && tv.IsType() {
		return "" // type conversion
	}
	if fn := pass.FuncFor(call); fn != nil {
		return "calls " + fn.Name()
	}
	return "calls a function value"
}

func isBuiltin(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// assignsOutside reports whether any assignment target resolves to
// storage declared outside the range statement — an outer slice
// variable, a struct field, a map entry.
func assignsOutside(pass *Pass, lhs []ast.Expr, rs *ast.RangeStmt) bool {
	for _, l := range lhs {
		switch l := ast.Unparen(l).(type) {
		case *ast.Ident:
			obj := pass.Pkg.Info.Defs[l]
			if obj == nil {
				obj = pass.Pkg.Info.Uses[l]
			}
			if obj == nil || obj.Pos() < rs.Pos() || obj.Pos() > rs.End() {
				return true
			}
		default:
			// Selector or index expressions reach through to outer
			// storage by construction.
			return true
		}
	}
	return false
}

func exprString(pass *Pass, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Pkg.Fset, e); err != nil {
		return "?"
	}
	return buf.String()
}
