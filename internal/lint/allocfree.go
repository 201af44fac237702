package lint

// allocfree.go is the allocation-reachability analyzer behind the
// zero-alloc hot-path contract (DESIGN.md §6i). The kernel's scaling
// story — scheduler events in tens of nanoseconds, flood and
// flow-export paths at 0 allocs/op — is enforced dynamically by
// testing.AllocsPerRun pins on a handful of hand-picked paths; this
// engine makes the same contract a static property of the whole call
// graph. It closes reachability over the call graph of reach.go (CHA
// interface dispatch, BFS with discovery-parent chains) from two
// kinds of root:
//
//   - seeded hot-path roots (allocRoots, by funcKey): the scheduler's
//     enqueue and run loop;
//   - declared hot-path roots: any function whose doc comment carries
//     the //simlint:hotpath directive (grammar in allow.go).
//
// Every function reachable from a root is swept for allocation
// sites: new/make, escaping composite literals (&T{...}, slice and
// map literals), append growth, interface boxing at call, assign,
// return, and struct-literal-field sites, capturing closures and
// bound method values, string↔[]byte conversions, map writes,
// variadic argument slices, string concatenation, and calls into
// allocating stdlib packages (fmt and friends). Each finding carries
// the reachability chain from its root, so a report is a work item —
// it names the hot entry point the allocation rides on.
//
// Two escape hatches keep the sanctioned amortized-allocation idiom
// expressible. The sanctioned pooled constructor and destructor
// (sanctionedAllocs) are trusted at their interface — their free-list
// refills are amortized O(1) — so they are pre-marked reached: the BFS
// neither descends into them nor sweeps them. Everything else
// cold-but-reachable (slab growth in the scheduler, flow-table
// inserts, guarded trace events) must carry an audited
// //simlint:allow allocfree(reason) annotation, which the
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

// The hot-path contract, by funcKey ("pkgpath.Recv.Name").
var (
	// allocRoots are the seeded hot-path roots: the scheduler's enqueue
	// and run loop, whose bodies (and transitive callees) must not
	// allocate before any annotation.
	allocRoots = map[string]bool{
		simPkg + ".Scheduler.ScheduleSrc":   true,
		simPkg + ".Scheduler.ScheduleAtSrc": true,
		simPkg + ".Scheduler.run":           true,
	}
	// sanctionedAllocs are the pooled packet constructor and destructor.
	// The BFS neither descends into nor sweeps them: the free-list
	// refill inside is the amortized-allocation idiom.
	sanctionedAllocs = map[string]bool{
		netsimPkg + ".pktPool.get": true,
		netsimPkg + ".pktPool.put": true,
	}
	// allocPkgs are the import-path prefixes of stdlib packages whose
	// calls are reported as allocating outright (fmt.Sprintf and friends
	// allocate regardless of arguments).
	allocPkgs = []string{"fmt", "strings", "strconv", "bytes", "errors", "sort", "log"}
)

// allocEngine is the allocfree analyzer. Prepare runs the analysis
// once over the whole run: it builds the unit table (reach.go), closes
// reachability from the hot roots, sweeps the reached units and
// records the inventory; Run replays the findings per package through
// the usual Pass filter.
type allocEngine struct {
	prepared   bool
	byFn       map[*types.Func]*unit
	byLit      map[*ast.FuncLit]*unit
	namedTypes []*types.Named

	findings  map[*Package][]allocFinding
	inventory []InventoryEntry
}

// allocFinding is one stored diagnostic, replayed through a Pass.
type allocFinding struct {
	pos token.Pos
	msg string
}

// allocSite is one allocation a unit performs directly.
type allocSite struct {
	pos  token.Pos
	kind string // short class for the inventory (closure, make, boxing, …)
	what string // human description for the diagnostic
}

// NewAllocFree returns the allocfree analyzer with DDoSim's hot-path
// contract baked in.
func NewAllocFree() Analyzer {
	return &allocEngine{
		byFn:     make(map[*types.Func]*unit),
		byLit:    make(map[*ast.FuncLit]*unit),
		findings: make(map[*Package][]allocFinding),
	}
}

func (eng *allocEngine) Name() string { return "allocfree" }
func (eng *allocEngine) Doc() string {
	return "forbid allocation sites reachable from a declared hot path (//simlint:hotpath or seeded roots)"
}

func (eng *allocEngine) Run(pass *Pass) {
	for _, f := range eng.findings[pass.Pkg] {
		pass.Reportf("allocfree", f.pos, "%s", f.msg)
	}
}

// Prepare builds the unit table, marks hot roots (seeds and
// annotations), pre-marks the sanctioned pooled constructors reached,
// and closes reachability, sweeping every unit it reaches for
// allocation sites. Idempotent.
func (eng *allocEngine) Prepare(pkgs []*Package) {
	if eng.prepared {
		return
	}
	eng.prepared = true
	eng.collectNamedTypes(pkgs)
	units := collectUnits(pkgs)
	for _, u := range units {
		if u.fn != nil {
			eng.byFn[u.fn] = u
		} else {
			eng.byLit[u.lit] = u
		}
	}
	eng.markHotRoots(pkgs, units)
	eng.propagate(units)
}

// markHotRoots marks seeded roots and //simlint:hotpath-annotated
// declarations, emitting one "hotpath" inventory row per root, and
// pre-marks the sanctioned pooled constructors reached. A hotpath
// directive that is not part of a function declaration's doc comment
// is itself a finding: a floating annotation roots nothing.
func (eng *allocEngine) markHotRoots(pkgs []*Package, units []*unit) {
	for _, u := range units {
		if u.fn == nil {
			continue
		}
		switch key := funcKey(u.fn); {
		case allocRoots[key]:
			u.root = true
			u.rootWhy = "seeded hot path"
			eng.addInventory(u, u.fn.Pos(), "hotpath", u.desc, "seeded root")
		case sanctionedAllocs[key]:
			u.reached = true
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
					if u := eng.byFn[fn]; u != nil && !u.root {
						u.root = true
						u.rootWhy = "declared hot path (//simlint:hotpath)"
						eng.addInventory(u, decl.Name.Pos(), "hotpath", u.desc, "//simlint:hotpath")
					}
				}
				return true
			})
			for _, group := range file.Comments {
				for _, c := range group.List {
					if hotpathRe.MatchString(c.Text) && !consumed[c] {
						eng.findings[pkg] = append(eng.findings[pkg], allocFinding{
							pos: c.Pos(),
							msg: "simlint:hotpath must be part of a function declaration's doc comment; a floating directive roots nothing",
						})
					}
				}
			}
		}
	}
}

// sweep emits one finding (and inventory row) per allocation site of
// a reached unit, chained back to its hot root.
func (eng *allocEngine) sweep(u *unit) {
	for _, s := range eng.sites(u) {
		eng.findings[u.pkg] = append(eng.findings[u.pkg], allocFinding{
			pos: s.pos,
			msg: fmt.Sprintf("hot-path allocation: %s (reached via %s)", s.what, u.chain()),
		})
		eng.addInventory(u, s.pos, "violation", s.kind, s.what)
	}
}

// posRange is a half-open source interval.
type posRange struct{ lo, hi token.Pos }

// sites classifies every allocation a unit performs directly,
// excluding nested literal bodies (their own units) and panic
// arguments (terminal paths).
func (eng *allocEngine) sites(u *unit) []allocSite {
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
			if vars := capturedVars(u.pkg, n); len(vars) > 0 {
				names := make([]string, len(vars))
				for i, v := range vars {
					names[i] = v.Name()
				}
				add(n.Pos(), "closure", fmt.Sprintf(
					"func literal captures %s; every evaluation allocates a closure", strings.Join(names, ", ")))
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
func (eng *allocEngine) callSites(u *unit, call *ast.CallExpr, add func(token.Pos, string, string)) {
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
	if fn := funcFor(u.pkg, call); fn != nil && fn.Pkg() != nil {
		path := fn.Pkg().Path()
		for _, prefix := range allocPkgs {
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
func (eng *allocEngine) assignSites(u *unit, n *ast.AssignStmt, add func(token.Pos, string, string)) {
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
func (eng *allocEngine) structLitSites(u *unit, lit *ast.CompositeLit, st *types.Struct, add func(token.Pos, string, string)) {
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
func (eng *allocEngine) valueSite(u *unit, expr ast.Expr, target types.Type, role string, add func(token.Pos, string, string)) {
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

func isIdentName(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

// isPkgLevel reports whether v is a package-level variable.
func isPkgLevel(v *types.Var) bool {
	return v != nil && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func typeStr(t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
