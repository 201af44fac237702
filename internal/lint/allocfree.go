package lint

// allocfree.go is the allocation-reachability analyzer behind the
// zero-alloc hot-path contract (DESIGN.md §6i). The kernel's scaling
// story — scheduler events in tens of nanoseconds, flood and
// flow-export paths at 0 allocs/op — is enforced dynamically by
// testing.AllocsPerRun pins on a handful of hand-picked paths; this
// engine makes the same contract a static property of the whole call
// graph. It reuses the reach machinery of the shard-confinement
// engine (reach.go: call graph with CHA interface dispatch, BFS with
// discovery-parent chains) with its own root set:
//
//   - seeded hot-path roots (AllocConfig.Roots, by funcKey): the
//     scheduler's enqueue and run loop;
//   - declared hot-path roots: any function whose doc comment carries
//     the //simlint:hotpath directive (grammar in allow.go).
//
// Every function reachable from a root is swept for allocation
// sites: new/make, escaping composite literals (&T{...}, slice and
// map literals), append growth, interface boxing at call, assign,
// return, and struct-literal-field sites, capturing closures and
// bound method values, string↔[]byte conversions, map writes,
// variadic argument slices, string concatenation, and calls into
// allocating stdlib packages (fmt and friends). Each
// finding carries the reachability chain from its root, the same
// provenance rendering shardconfine uses, so a report is a work item
// — it names the hot entry point the allocation rides on.
//
// Two escape hatches keep the sanctioned amortized-allocation idiom
// expressible. Seeded alloc-free functions (AllocConfig.AllocFree:
// the pooled packet constructor/destructor) are trusted at their
// interface — their free-list refills are amortized O(1) — so the
// BFS does not descend into them and the allocSummary fixpoint
// (mirroring the ownership engine's ownSummary) reports them, and
// every pooled constructor built on them, as alloc-free at steady
// state. Everything else cold-but-reachable (slab growth in the
// scheduler, flow-table inserts, guarded trace events) must carry an
// audited //simlint:allow allocfree(reason) annotation, which the
// -unused-allows audit keeps honest and the -inventory artifact
// records as "allowed" rows alongside the "hotpath" root rows.
//
// Value-struct composite literals, constants converted to
// interfaces, and pointer-shaped values (pointers, maps, channels,
// funcs) boxed into interfaces are not reported: they do not
// allocate. Panic arguments are exempt wholesale — a panicking hot
// path is already dead. Dynamic calls through stored func values
// widen toward silence, like the rest of the suite: the callee
// becomes hot through its own annotation, and the simdebug alloc
// sentinel (internal/sim.AllocSentinel) catches the dynamic side.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocConfig seeds the allocation-reachability engine. Function keys
// are "pkgpath.Recv.Name" (funcKey).
type AllocConfig struct {
	// Roots: seeded hot-path roots — functions whose bodies (and
	// transitive callees) must not allocate, before any annotation.
	Roots map[string]bool
	// AllocFree: sanctioned pooled constructors. Their bodies are not
	// swept (the free-list refill inside is the amortized-allocation
	// idiom) and their allocSummary is pinned alloc-free, so callers
	// building on the pool summarize as alloc-free too.
	AllocFree map[string]bool
	// AllocPkgs: import-path prefixes of stdlib packages whose calls
	// are reported as allocating outright (fmt.Sprintf and friends
	// allocate regardless of arguments).
	AllocPkgs []string
}

// DefaultAllocConfig matches DDoSim's hot-path contract: the
// scheduler's enqueue and run loop are seeded roots, the pooled
// packet path is the sanctioned constructor.
func DefaultAllocConfig() *AllocConfig {
	const (
		simpkg = "ddosim/internal/sim"
		netsim = "ddosim/internal/netsim"
	)
	return &AllocConfig{
		Roots: map[string]bool{
			simpkg + ".Scheduler.ScheduleAtSrc": true,
			simpkg + ".Scheduler.run":           true,
		},
		AllocFree: map[string]bool{
			netsim + ".pktPool.get": true,
			netsim + ".pktPool.put": true,
		},
		AllocPkgs: []string{"fmt", "strings", "strconv", "bytes", "errors", "sort", "log"},
	}
}

// allocSummary is the interprocedural allocation fact for one unit:
// whether any execution of it can allocate, and — when it can — the
// first site (or callee) that makes it so. Mirrors the ownership
// engine's summary fixpoint: facts start optimistic (alloc-free) and
// monotonically flip to allocating until the graph stabilizes.
type allocSummary struct {
	allocates bool
	why       string
}

// allocEngine runs the analysis once per Prepare over the whole run.
// It owns a private confEngine for the graph machinery (units, CHA
// callees, BFS, inventory); findings replay per package through the
// usual Pass filter.
type allocEngine struct {
	cfg      *AllocConfig
	g        *confEngine
	prepared bool

	edges      map[*confUnit][]calleeEdge
	ownSites   map[*confUnit][]allocSite
	summaries  map[*confUnit]*allocSummary
	sanctioned map[*confUnit]bool
}

// allocSite is one allocation a unit performs directly.
type allocSite struct {
	pos  token.Pos
	kind string // short class for the inventory (closure, make, boxing, …)
	what string // human description for the diagnostic
}

func newAllocEngine(cfg *AllocConfig, conf *ConfineConfig) *allocEngine {
	return &allocEngine{
		cfg:        cfg,
		g:          newConfEngine(conf),
		edges:      make(map[*confUnit][]calleeEdge),
		ownSites:   make(map[*confUnit][]allocSite),
		summaries:  make(map[*confUnit]*allocSummary),
		sanctioned: make(map[*confUnit]bool),
	}
}

// NewAllocFree returns the allocfree analyzer with DDoSim's hot-path
// contract baked in.
func NewAllocFree() Analyzer {
	return &allocAnalyzer{eng: newAllocEngine(DefaultAllocConfig(), DefaultConfineConfig())}
}

type allocAnalyzer struct {
	eng *allocEngine
}

func (a *allocAnalyzer) Name() string { return "allocfree" }
func (a *allocAnalyzer) Doc() string {
	return "forbid allocation sites reachable from a declared hot path (//simlint:hotpath or seeded roots)"
}

func (a *allocAnalyzer) Prepare(pkgs []*Package) { a.eng.prepare(pkgs) }

func (a *allocAnalyzer) Run(pass *Pass) {
	for _, f := range a.eng.g.findings[pass.Pkg] {
		if f.analyzer != "allocfree" {
			continue
		}
		pass.Reportf("allocfree", f.pos, "%s", f.msg)
	}
}

// prepare builds the graph, marks hot roots (seeds + annotations),
// closes reachability without descending into sanctioned pooled
// constructors, runs the allocSummary fixpoint, and sweeps every
// reached unit for allocation sites. Idempotent.
func (eng *allocEngine) prepare(pkgs []*Package) {
	if eng.prepared {
		return
	}
	eng.prepared = true
	g := eng.g
	g.collectNamedTypes(pkgs)
	for _, pkg := range pkgs {
		g.units = append(g.units, g.collectConfUnits(pkg)...)
	}
	eng.markHotRoots(pkgs)
	// Sanctioned pooled constructors: pre-marking them reached keeps
	// the BFS from descending into their refill bodies and from
	// sweeping them.
	for _, u := range g.units {
		if u.fn != nil && eng.cfg.AllocFree[funcKey(u.fn)] {
			u.reached = true
			eng.sanctioned[u] = true
		}
	}
	for _, u := range g.units {
		eng.edges[u] = g.callees(u)
		eng.ownSites[u] = eng.sites(u)
	}
	g.propagate()
	eng.computeAllocSummaries()
	for _, u := range g.units {
		if u.reached && !eng.sanctioned[u] {
			eng.sweep(u)
		}
	}
}

// markHotRoots marks seeded roots and //simlint:hotpath-annotated
// declarations, emitting one "hotpath" inventory row per root. A
// hotpath directive that is not part of a function declaration's doc
// comment is itself a finding: a floating annotation roots nothing.
func (eng *allocEngine) markHotRoots(pkgs []*Package) {
	g := eng.g
	for _, u := range g.units {
		if u.fn != nil && eng.cfg.Roots[funcKey(u.fn)] {
			u.root = true
			u.rootWhy = "seeded hot path"
			g.addInventory(u, u.fn.Pos(), "allocfree", "hotpath", u.desc, "seeded root")
		}
	}
	for _, pkg := range pkgs {
		consumed := make(map[*ast.Comment]bool)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				decl, ok := n.(*ast.FuncDecl)
				if !ok || decl.Doc == nil {
					return true
				}
				for _, c := range decl.Doc.List {
					if !hotpathRe.MatchString(c.Text) {
						continue
					}
					consumed[c] = true
					fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
					if fn == nil {
						continue
					}
					if u := g.byFn[fn]; u != nil && !u.root {
						u.root = true
						u.rootWhy = "declared hot path (//simlint:hotpath)"
						g.addInventory(u, decl.Name.Pos(), "allocfree", "hotpath", u.desc, "//simlint:hotpath")
					}
				}
				return true
			})
			for _, group := range file.Comments {
				for _, c := range group.List {
					if hotpathRe.MatchString(c.Text) && !consumed[c] {
						g.findings[pkg] = append(g.findings[pkg], confFinding{
							analyzer: "allocfree",
							pos:      c.Pos(),
							msg:      "simlint:hotpath must be part of a function declaration's doc comment; a floating directive roots nothing",
						})
					}
				}
			}
		}
	}
}

// computeAllocSummaries derives, to a fixpoint over the cached call
// graph, whether each unit can allocate. Seeded alloc-free units are
// pinned: the pool's amortized refill does not count against its
// callers, which is what lets getPacket-style constructors summarize
// as alloc-free at steady state.
func (eng *allocEngine) computeAllocSummaries() {
	for _, u := range eng.g.units {
		s := &allocSummary{}
		if !eng.sanctioned[u] && len(eng.ownSites[u]) > 0 {
			s.allocates = true
			s.why = eng.ownSites[u][0].what
		}
		eng.summaries[u] = s
	}
	for {
		changed := false
		for _, u := range eng.g.units {
			s := eng.summaries[u]
			if s.allocates || eng.sanctioned[u] {
				continue
			}
			for _, e := range eng.edges[u] {
				if cs := eng.summaries[e.to]; cs != nil && cs.allocates && !eng.sanctioned[e.to] {
					s.allocates = true
					s.why = "calls " + e.to.desc + " (" + cs.why + ")"
					changed = true
					break
				}
			}
		}
		if !changed {
			return
		}
	}
}

// summaryFor reports the allocSummary of the unit with the given
// funcKey, for tests and tooling.
func (eng *allocEngine) summaryFor(key string) (*allocSummary, bool) {
	for _, u := range eng.g.units {
		if u.fn != nil && funcKey(u.fn) == key {
			return eng.summaries[u], true
		}
	}
	return nil, false
}

// sweep emits one finding (and inventory row) per allocation site of
// a reached unit, chained back to its hot root.
func (eng *allocEngine) sweep(u *confUnit) {
	for _, s := range eng.ownSites[u] {
		eng.g.findings[u.pkg] = append(eng.g.findings[u.pkg], confFinding{
			analyzer: "allocfree",
			pos:      s.pos,
			msg:      fmt.Sprintf("hot-path allocation: %s (reached via %s)", s.what, u.chain()),
		})
		eng.g.addInventory(u, s.pos, "allocfree", "violation", s.kind, s.what)
	}
}

// posRange is a half-open source interval.
type posRange struct{ lo, hi token.Pos }

// sites classifies every allocation a unit performs directly,
// excluding nested literal bodies (their own units) and panic
// arguments (terminal paths).
func (eng *allocEngine) sites(u *confUnit) []allocSite {
	info := u.pkg.Info
	var exempt []posRange
	ast.Inspect(u.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if _, builtin := info.Uses[id].(*types.Builtin); builtin {
				exempt = append(exempt, posRange{call.Pos(), call.End()})
			}
		}
		return true
	})
	inExempt := func(p token.Pos) bool {
		for _, r := range exempt {
			if p >= r.lo && p < r.hi {
				return true
			}
		}
		return false
	}

	var out []allocSite
	seen := make(map[string]bool)
	add := func(pos token.Pos, kind, what string) {
		if inExempt(pos) {
			return
		}
		key := fmt.Sprintf("%d/%s", pos, kind)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, allocSite{pos: pos, kind: kind, what: what})
	}

	ast.Inspect(u.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n == u.lit {
				return true
			}
			if vars := eng.captures(u, n); len(vars) > 0 {
				add(n.Pos(), "closure", fmt.Sprintf(
					"func literal captures %s; every evaluation allocates a closure", strings.Join(vars, ", ")))
			}
			return false // nested literal bodies are their own units
		case *ast.CallExpr:
			eng.callSites(u, n, add)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "composite", "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			switch ut := info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				add(n.Pos(), "composite", "slice literal allocates its backing array")
			case *types.Map:
				add(n.Pos(), "composite", "map literal allocates")
			case *types.Struct:
				eng.structLitSites(u, n, ut, add)
			}
		case *ast.AssignStmt:
			eng.assignSites(u, n, add)
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
				add(n.X.Pos(), "mapwrite", "map write may allocate (bucket growth on insert)")
			}
		case *ast.ValueSpec:
			var t types.Type
			if n.Type != nil {
				t = info.TypeOf(n.Type)
			}
			for _, v := range n.Values {
				eng.valueSite(u, v, t, "value", add)
			}
		case *ast.ReturnStmt:
			res := u.sig.Results()
			if len(n.Results) == res.Len() {
				for i, e := range n.Results {
					eng.valueSite(u, e, res.At(i).Type(), "result", add)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				if tv, ok := info.Types[n]; ok && tv.Value == nil {
					add(n.Pos(), "concat", "string concatenation allocates")
				}
			}
		}
		return true
	})
	return out
}

// callSites classifies the allocations a single call performs:
// builtins (new/make/append), string↔[]byte conversions, calls into
// allocating stdlib packages, boxing of concrete arguments into
// interface parameters, and the variadic argument slice.
func (eng *allocEngine) callSites(u *confUnit, call *ast.CallExpr, add func(token.Pos, string, string)) {
	info := u.pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin {
			switch id.Name {
			case "new":
				add(call.Pos(), "new", "new() allocates")
			case "make":
				add(call.Pos(), "make", "make() allocates")
			case "append":
				add(call.Pos(), "append", "append may grow its backing array")
			}
			return
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Type conversion: string↔[]byte and string↔[]rune copy.
		if len(call.Args) == 1 {
			dst, src := tv.Type, info.TypeOf(call.Args[0])
			if conversionAllocates(dst, src) {
				add(call.Pos(), "conversion", fmt.Sprintf(
					"%s→%s conversion copies and allocates", typeStr(src), typeStr(dst)))
			}
		}
		return
	}
	if fn := eng.g.funcFor(u.pkg, call); fn != nil && fn.Pkg() != nil && !eng.g.inModule(fn.Pkg().Path()) {
		path := fn.Pkg().Path()
		for _, prefix := range eng.cfg.AllocPkgs {
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				add(call.Pos(), "extcall", fmt.Sprintf("call to %s.%s allocates", path, fn.Name()))
				break
			}
		}
	}
	sig, _ := info.TypeOf(call.Fun).Underlying().(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(np - 1).Type()
			} else if st, ok := params.At(np - 1).Type().(*types.Slice); ok {
				pt = st.Elem()
			}
		case i < np:
			pt = params.At(i).Type()
		}
		eng.valueSite(u, arg, pt, "argument", add)
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= np {
		add(call.Pos(), "variadic", "variadic call allocates its argument slice")
	}
}

// assignSites classifies map writes and interface boxing on the two
// sides of an assignment.
func (eng *allocEngine) assignSites(u *confUnit, n *ast.AssignStmt, add func(token.Pos, string, string)) {
	info := u.pkg.Info
	for _, lhs := range n.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
			add(lhs.Pos(), "mapwrite", "map write may allocate (bucket growth on insert)")
		}
	}
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		if isIdentName(lhs, "_") {
			continue
		}
		eng.valueSite(u, n.Rhs[i], info.TypeOf(lhs), "value", add)
	}
}

// structLitSites reports boxing performed inside a struct composite
// literal: a concrete value stored into an interface-typed field
// allocates exactly as an interface assignment does.
func (eng *allocEngine) structLitSites(u *confUnit, lit *ast.CompositeLit, st *types.Struct, add func(token.Pos, string, string)) {
	fieldByName := func(name string) *types.Var {
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == name {
				return st.Field(i)
			}
		}
		return nil
	}
	for i, el := range lit.Elts {
		var ft types.Type
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			key, _ := kv.Key.(*ast.Ident)
			if key == nil {
				continue
			}
			if f := fieldByName(key.Name); f != nil {
				ft = f.Type()
			}
			val = kv.Value
		} else if i < st.NumFields() {
			ft = st.Field(i).Type()
		}
		eng.valueSite(u, val, ft, "field", add)
	}
}

// valueSite reports the allocation performed by storing expr into a
// destination of type target (nil when unknown): interface boxing, or
// the closure allocated by evaluating a bound method value.
func (eng *allocEngine) valueSite(u *confUnit, expr ast.Expr, target types.Type, role string, add func(token.Pos, string, string)) {
	info := u.pkg.Info
	if fn, ok := methodValue(info, expr); ok {
		add(expr.Pos(), "methodvalue", fmt.Sprintf(
			"bound method value %s allocates a closure per evaluation; bind it once in setup", fn.Name()))
		return
	}
	if boxes(info, expr, target) {
		add(expr.Pos(), "boxing", fmt.Sprintf(
			"%s %s boxed into %s allocates", typeStr(info.TypeOf(expr)), role, typeStr(target)))
	}
}

// methodValue reports whether expr is a bound method value — x.M used
// as a value, not called — which allocates a closure binding the
// receiver on every evaluation. Method expressions (T.M) and plain
// function references are static and exempt. Callers only pass
// value-position expressions, never a CallExpr's Fun.
func methodValue(info *types.Info, expr ast.Expr) (*types.Func, bool) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, false
	}
	if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
		return fn, true
	}
	return nil, false
}

// captures lists the variables a nested literal closes over: any
// non-package-level variable declared outside the literal. A literal
// that captures nothing compiles to a static closure and does not
// allocate per evaluation.
func (eng *allocEngine) captures(u *confUnit, lit *ast.FuncLit) []string {
	var names []string
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := u.pkg.Info.Uses[id].(*types.Var)
		if v == nil || v.IsField() || isPkgLevel(v) || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal (params, locals)
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}

// boxes reports whether assigning/passing expr into target performs
// an allocating interface conversion: a concrete, non-pointer-shaped,
// non-constant value into an interface. Pointer-shaped values
// (pointers, maps, channels, funcs) fit the interface data word;
// constants are boxed at link time.
func boxes(info *types.Info, expr ast.Expr, target types.Type) bool {
	if target == nil {
		return false
	}
	iface, ok := target.Underlying().(*types.Interface)
	if !ok || iface == nil {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	t := tv.Type
	if t == types.Typ[types.UntypedNil] {
		return false
	}
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return false
	}
	return true
}

// conversionAllocates reports whether a dst(src) conversion copies
// into fresh memory: string↔[]byte and string↔[]rune in either
// direction.
func conversionAllocates(dst, src types.Type) bool {
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
