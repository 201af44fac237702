package lint

import (
	"go/ast"
	"go/types"
)

// wallclockFuncs are the package-level time functions that read or
// wait on the wall clock. Referencing any of them couples simulation
// behaviour to host timing and breaks same-seed reproducibility;
// simulated code must use sim.Time and the scheduler.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Wallclock flags wall-clock access in every package. An audited
// read carries an inline allow annotation naming wallclock and its
// reason; the simulator has none, and cmd/bench's timer has one.
type Wallclock struct{}

// NewWallclock returns the analyzer.
func NewWallclock() *Wallclock { return &Wallclock{} }

func (w *Wallclock) Name() string { return "wallclock" }

func (w *Wallclock) Doc() string {
	return "forbid time.Now/Since/Sleep and friends outside allowlisted packages"
}

func (w *Wallclock) Run(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods on Time/Duration values are pure
			}
			if wallclockFuncs[fn.Name()] {
				pass.Reportf(w.Name(), id.Pos(),
					"time.%s reads the wall clock; simulation code must use sim.Time via the scheduler", fn.Name())
			}
			return true
		})
	}
}
