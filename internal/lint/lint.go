// Package lint is DDoSim's determinism and simulation-safety static
// analysis engine. It is built directly on go/parser, go/ast, and
// go/types — no golang.org/x/tools dependency — and checks the
// invariants the simulation kernel promises but the compiler cannot
// enforce:
//
//   - wallclock: simulation code must read sim.Time, never the wall
//     clock. time.Now/Since/Sleep and friends are banned in every
//     package; the one read the simulator makes (the obs profiler's
//     default clock) carries an inline //simlint:allow.
//   - globalrand: all randomness flows through injected seeded
//     *rand.Rand values. Package-level math/rand functions share
//     hidden global state across subsystems and break same-seed
//     reproducibility.
//   - maporder: Go map iteration order is deliberately randomized, so
//     a `range` over a map whose body has side effects (calls, channel
//     ops, appends to outer scope) leaks nondeterminism into event
//     ordering. Iterate sorted keys instead, or annotate a provably
//     order-independent loop with //simlint:allow maporder(reason).
//   - schedblock: scheduler callbacks run on the single-threaded
//     event loop; channel operations, sync primitives, and goroutine
//     spawns inside them either deadlock the loop or reintroduce the
//     concurrency the kernel exists to avoid.
//
// The cmd/simlint driver loads every package in the module and runs
// the default suite; `go run ./cmd/simlint ./...` is a blocking CI
// gate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned relative to the module root.
type Diagnostic struct {
	File     string `json:"file"` // module-root-relative path
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the canonical file:line:col analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one check run over a type-checked package.
type Analyzer interface {
	// Name is the short identifier used in diagnostics and in
	// //simlint:allow annotations.
	Name() string
	// Doc is a one-line description for the driver's -list output.
	Doc() string
	// Run inspects the package behind pass and reports findings.
	Run(pass *Pass)
}

// Pass carries one package through one analyzer, routing reports
// through the allow-annotation filter.
type Pass struct {
	Pkg    *Package
	allows allowIndex
	diags  *[]Diagnostic
}

// TypeOf resolves the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// FuncFor resolves a call's callee to a *types.Func, or nil when the
// callee is a builtin, a type conversion, or a function value.
func (p *Pass) FuncFor(call *ast.CallExpr) *types.Func { return funcFor(p.Pkg, call) }

// Reportf records a diagnostic at pos unless an allow annotation for
// the analyzer covers that line.
func (p *Pass) Reportf(analyzer string, pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.allows.covers(analyzer, position.Filename, position.Line) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		File:     p.Pkg.relPath(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Preparer is implemented by analyzers that need a whole-run phase
// before per-package reporting — the ownership engine computes its
// interprocedural function summaries here. Run invokes Prepare once
// per analyzer, with every package of the run, before any Run call.
type Preparer interface {
	Prepare(pkgs []*Package)
}

// RunOpts selects optional whole-run checks layered on top of the
// analyzer suite.
type RunOpts struct {
	// UnusedAllows reports every //simlint:allow annotation naming an
	// analyzer from the run set that suppressed nothing, or naming no
	// analyzer of DefaultSuite at all — the stale-suppression audit CI
	// runs with the full suite.
	UnusedAllows bool
}

// Run executes the analyzers over each package and returns all
// diagnostics sorted by (file, line, col, analyzer). Malformed or
// reason-less allow annotations surface as diagnostics themselves.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	return RunWith(pkgs, analyzers, RunOpts{})
}

// RunWith is Run with options.
func RunWith(pkgs []*Package, analyzers []Analyzer, opts RunOpts) []Diagnostic {
	for _, a := range analyzers {
		if p, ok := a.(Preparer); ok {
			p.Prepare(pkgs)
		}
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name()] = true
	}
	var known map[string]bool
	if opts.UnusedAllows {
		known = make(map[string]bool)
		for _, a := range append(DefaultSuite(), analyzers...) {
			known[a.Name()] = true
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := collectAllows(pkg, &diags)
		pass := &Pass{Pkg: pkg, allows: allows, diags: &diags}
		for _, a := range analyzers {
			a.Run(pass)
		}
		if opts.UnusedAllows {
			allows.reportUnused(ran, known, &diags)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// The packages whose contracts the ownership and allocfree tables
// encode: the event kernel and the pooled packet path.
const (
	simPkg    = "ddosim/internal/sim"
	netsimPkg = "ddosim/internal/netsim"
)

// DefaultSuite returns the seven analyzers with DDoSim's repo policy
// baked in.
func DefaultSuite() []Analyzer {
	pktown, stalecapture := NewOwnership()
	return []Analyzer{
		NewWallclock(),
		NewGlobalRand(),
		NewMapOrder(),
		NewSchedBlock(),
		pktown,
		stalecapture,
		NewAllocFree(),
	}
}

// relPath renders filename relative to the package's module root; the
// absolute path is kept when it escapes the root.
func (p *Package) relPath(filename string) string {
	rel, err := filepath.Rel(p.Root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return filepath.ToSlash(rel)
}

// pathBase reports the last segment of an import path — the matcher
// the maporder analyzer uses for its determinism-critical package set.
func pathBase(importPath string) string {
	if i := strings.LastIndexByte(importPath, '/'); i >= 0 {
		return importPath[i+1:]
	}
	return importPath
}
