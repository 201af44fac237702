package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SchedBlock inspects function literals passed to the simulation
// kernel's scheduling entry points (sim.Scheduler.Schedule*,
// sim.NewTicker) and to sim.Scheduler.Barrier. Those callbacks
// execute on the event loop: a channel operation or lock wait inside
// one deadlocks the entire simulation, and a spawned goroutine races
// the kernel state the loop exists to serialize.
type SchedBlock struct {
	// SimPkg is the import path of the scheduler package.
	SimPkg string
}

// NewSchedBlock returns the analyzer bound to the repo's kernel.
func NewSchedBlock() *SchedBlock {
	return &SchedBlock{SimPkg: "ddosim/internal/sim"}
}

func (s *SchedBlock) Name() string { return "schedblock" }

func (s *SchedBlock) Doc() string {
	return "forbid channel ops, sync primitives, and goroutines inside scheduler callbacks"
}

func (s *SchedBlock) Run(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.FuncFor(call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != s.SimPkg {
				return true
			}
			if !isSchedulingEntry(fn) && fn.Name() != "Barrier" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					s.checkCallback(pass, fn.Name(), lit)
				}
			}
			return true
		})
	}
}

func isSchedulingEntry(fn *types.Func) bool {
	name := fn.Name()
	if name == "NewTicker" {
		return true
	}
	return len(name) >= len("Schedule") && name[:len("Schedule")] == "Schedule"
}

func (s *SchedBlock) checkCallback(pass *Pass, entry string, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			s.report(pass, n.Pos(), entry, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.report(pass, n.Pos(), entry, "channel receive")
			}
		case *ast.SelectStmt:
			s.report(pass, n.Pos(), entry, "select statement")
			return false
		case *ast.GoStmt:
			s.report(pass, n.Pos(), entry, "goroutine spawn")
		case *ast.CallExpr:
			if fn := pass.FuncFor(n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				s.report(pass, n.Pos(), entry, "sync."+recvName(fn)+fn.Name()+" call")
			}
		}
		return true
	})
}

func (s *SchedBlock) report(pass *Pass, pos token.Pos, entry, what string) {
	pass.Reportf(s.Name(), pos,
		"%s inside a %s callback; scheduler callbacks run on the single-threaded event loop and must stay non-blocking", what, entry)
}

func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "."
	}
	return ""
}
