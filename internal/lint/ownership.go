package lint

// ownership.go is the flow-sensitive dataflow engine behind the
// pktown and stalecapture analyzers. It tracks where the single
// ownership of each pooled *netsim.Packet is at every program point,
// per function, over the CFGs built by cfg.go, and summarizes each
// function's effect on its pooled parameters so facts propagate
// interprocedurally across the send path — RacerD-style compositional
// summaries rather than whole-program abstract interpretation.
//
// The fact for a variable is a *set* of ownership states (a bitmask),
// joined by union at control-flow merges: the analysis answers "may
// this pointer be released here?" and only reports when a definitely
// bad state is in the set. Anything the engine cannot model precisely
// (aliasing, escaping into the heap, calls it has no summary for)
// widens to stUnknown, which silences all later reports on that
// variable — the engine prefers a missed bug over a false alarm,
// because the simdebug runtime sanitizer (internal/netsim) covers the
// dynamic side of exactly these bugs.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// stateMask is a set of ownership states for one pooled variable.
type stateMask uint16

const (
	// stOwned: this frame holds the packet and is responsible for
	// releasing it or handing it off.
	stOwned stateMask = 1 << iota
	// stBorrowed: someone up the stack owns it; valid for the duration
	// of this call only.
	stBorrowed
	// stReleased: returned to the free list; any touch is use-after-release.
	stReleased
	// stHandedOff: ownership transferred (terminal send, channel,
	// container, return); this frame must not touch it again.
	stHandedOff
	// stCaptured: still owned, but a scheduled callback holds a
	// reference — releasing before the event fires is a bug.
	stCaptured
	// stUnknown: tracking gave up (alias, escape, unknown callee).
	stUnknown
)

// OwnConfig seeds the engine with the pool's primitive operations by
// function key ("pkgpath.Recv.Name"). Seeds take precedence over
// derived summaries so fixtures analyzed without the netsim package
// in the run still see the real transfer semantics.
type OwnConfig struct {
	// PoolTypes names the pooled struct types ("pkgpath.Name");
	// pointers to these are tracked.
	PoolTypes map[string]bool
	// Allocs return a fresh owned packet.
	Allocs map[string]bool
	// Releases return their pooled argument to the free list.
	Releases map[string]bool
	// Consumes take ownership of their pooled argument (terminal send).
	Consumes map[string]bool
	// SchedPkg is the scheduler package; function literals passed to
	// its Schedule*/NewTicker entries outlive the current frame.
	SchedPkg string
}

// DefaultOwnConfig matches internal/netsim's packet pool contract.
func DefaultOwnConfig() *OwnConfig {
	const netsim = "ddosim/internal/netsim"
	return &OwnConfig{
		PoolTypes: map[string]bool{netsim + ".Packet": true},
		Allocs: map[string]bool{
			netsim + ".Network.AllocPacket": true,
			netsim + ".Network.getPacket":   true,
			netsim + ".Network.clonePacket": true,
			netsim + ".Packet.Clone":        true,
			// Node-level pool surface: the same network-wide pool,
			// reached through the node that sends or receives.
			netsim + ".Node.AllocPacket": true,
			netsim + ".Node.getPacket":   true,
			netsim + ".Node.clonePacket": true,
		},
		Releases: map[string]bool{
			netsim + ".Network.ReleasePacket": true,
			netsim + ".Network.putPacket":     true,
			netsim + ".Node.ReleasePacket":    true,
			netsim + ".Node.putPacket":        true,
		},
		Consumes: map[string]bool{
			netsim + ".Node.SendPacket": true,
			netsim + ".NetDevice.Send":  true,
		},
		SchedPkg: "ddosim/internal/sim",
	}
}

// ownKind discriminates the engine's findings; the two analyzers
// split them between pktown and stalecapture.
type ownKind uint8

const (
	kindUseAfterRelease ownKind = iota
	kindUseAfterHandoff
	kindDoubleRelease
	kindLeak
	kindStaleBorrow
	kindStaleDead
	kindStaleConsume
)

func (k ownKind) analyzer() string {
	switch k {
	case kindStaleBorrow, kindStaleDead, kindStaleConsume:
		return "stalecapture"
	default:
		return "pktown"
	}
}

type ownFinding struct {
	kind ownKind
	pos  token.Pos
	msg  string
}

// ownSummary is a function's effect on pooled values: the exit-state
// mask of its receiver and each pooled formal, and the state of each
// pooled result from the callee's point of view. Summaries are joined
// monotonically across fixpoint rounds, so recursion converges.
type ownSummary struct {
	recv    stateMask
	params  map[int]stateMask
	results map[int]stateMask
}

func (s *ownSummary) union(o *ownSummary) bool {
	changed := false
	or := func(dst *stateMask, m stateMask) {
		if *dst|m != *dst {
			*dst |= m
			changed = true
		}
	}
	or(&s.recv, o.recv)
	for i, m := range o.params {
		v := s.params[i]
		or(&v, m)
		s.params[i] = v
	}
	for i, m := range o.results {
		v := s.results[i]
		or(&v, m)
		s.results[i] = v
	}
	return changed
}

// ownUnit is one analysis unit: a declared function or a function
// literal (literals are units of their own because the evaluator does
// not descend into them — it models only the capture).
type ownUnit struct {
	pkg      *Package
	fn       *types.Func // nil for function literals
	desc     string      // for diagnostics: "Node.SendPacket", "function literal"
	sig      *types.Signature
	recv     *types.Var
	body     *ast.BlockStmt
	lit      *ast.FuncLit
	g        *cfg
	captured []*types.Var // pooled vars a literal captures from its enclosing frame
}

// ownEngine runs the whole-run analysis once (Prepare) and replays
// the stored findings through each package's Pass so allow
// annotations and diagnostic ordering work exactly like every other
// analyzer.
type ownEngine struct {
	cfg       *OwnConfig
	prepared  bool
	summaries map[*types.Func]*ownSummary
	findings  map[*Package][]ownFinding
}

func newOwnEngine(cfg *OwnConfig) *ownEngine {
	return &ownEngine{
		cfg:       cfg,
		summaries: make(map[*types.Func]*ownSummary),
		findings:  make(map[*Package][]ownFinding),
	}
}

// Prepare computes summaries for every function in pkgs to a
// fixpoint, then runs one reporting sweep. Idempotent: the second
// analyzer sharing the engine is a no-op.
func (eng *ownEngine) Prepare(pkgs []*Package) {
	if eng.prepared {
		return
	}
	eng.prepared = true
	var units []*ownUnit
	for _, pkg := range pkgs {
		units = append(units, eng.collectUnits(pkg)...)
	}
	// Summary fixpoint. Summaries only grow (union), so this
	// terminates; the iteration bound is a safety net for pathological
	// call graphs.
	for round := 0; round < 10; round++ {
		changed := false
		for _, u := range units {
			if u.fn == nil {
				continue
			}
			sum := eng.analyzeUnit(u, nil)
			old := eng.summaries[u.fn]
			if old == nil {
				eng.summaries[u.fn] = sum
				changed = true
			} else if old.union(sum) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Reporting sweep with the final summaries.
	for _, u := range units {
		seen := make(map[string]bool)
		eng.analyzeUnit(u, func(f ownFinding) {
			key := fmt.Sprintf("%d/%d/%s", f.pos, f.kind, f.msg)
			if seen[key] {
				return
			}
			seen[key] = true
			eng.findings[u.pkg] = append(eng.findings[u.pkg], f)
		})
	}
}

// report replays the stored findings for one package through a Pass.
func (eng *ownEngine) report(pass *Pass, analyzer string) {
	for _, f := range eng.findings[pass.Pkg] {
		if f.kind.analyzer() != analyzer {
			continue
		}
		pass.Reportf(analyzer, f.pos, "%s", f.msg)
	}
}

// collectUnits finds every function declaration and literal in pkg.
func (eng *ownEngine) collectUnits(pkg *Package) []*ownUnit {
	var units []*ownUnit
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
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
				u := &ownUnit{
					pkg: pkg, fn: fn, sig: sig, recv: sig.Recv(),
					body: n.Body, desc: funcDesc(fn),
					g: buildCFG(n.Body),
				}
				units = append(units, u)
			case *ast.FuncLit:
				sig, _ := pkg.Info.TypeOf(n).(*types.Signature)
				if sig == nil {
					return true
				}
				u := &ownUnit{
					pkg: pkg, sig: sig, body: n.Body, lit: n,
					desc:     "function literal",
					g:        buildCFG(n.Body),
					captured: eng.capturedPooled(pkg, n),
				}
				units = append(units, u)
			}
			return true
		})
	}
	return units
}

// capturedPooled lists the pooled function-scoped variables a literal
// references but does not declare — the variables whose lifetime the
// stalecapture analyzer reasons about.
func (eng *ownEngine) capturedPooled(pkg *Package, lit *ast.FuncLit) []*types.Var {
	seen := make(map[*types.Var]bool)
	var out []*types.Var
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || seen[v] || !eng.isTrackable(pkg, v) {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

// isTrackable reports whether v is a function-scoped pooled pointer —
// the only thing the engine keeps facts for. Package-level variables
// and struct fields are shared state; they widen to unknown at the
// point of use instead.
func (eng *ownEngine) isTrackable(pkg *Package, v *types.Var) bool {
	if v == nil || v.IsField() || !eng.isPooledPtr(v.Type()) {
		return false
	}
	if v.Parent() == nil || v.Parent() == pkg.Types.Scope() {
		return false
	}
	return true
}

// isPooledPtr reports whether t is *T for a configured pool type.
func (eng *ownEngine) isPooledPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return eng.cfg.PoolTypes[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

// funcKey renders fn as "pkgpath.Recv.Name" for config lookups.
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			key += n.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// funcDesc renders fn for use in a diagnostic message.
func funcDesc(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// ownFacts maps each tracked variable to its current state set.
type ownFacts map[*types.Var]stateMask

func (f ownFacts) clone() ownFacts {
	c := make(ownFacts, len(f))
	for v, m := range f {
		c[v] = m
	}
	return c
}

func factsEqual(a, b ownFacts) bool {
	if len(a) != len(b) {
		return false
	}
	for v, m := range a {
		if b[v] != m {
			return false
		}
	}
	return true
}

// analyzeUnit runs the dataflow fixpoint over u's CFG and returns its
// summary. With emit non-nil it also performs the reporting walk.
func (eng *ownEngine) analyzeUnit(u *ownUnit, emit func(ownFinding)) *ownSummary {
	preds := u.g.preds()
	init := eng.initFacts(u)
	outs := make(map[*cfgBlock]ownFacts)
	ev := &ownEval{u: u, eng: eng,
		allocSite:    make(map[*types.Var]token.Pos),
		eventSite:    make(map[*types.Var]token.Pos),
		rangeVars:    make(map[*types.Var]bool),
		deferRelease: make(map[*types.Var]bool),
	}
	joinIn := func(b *cfgBlock) ownFacts {
		in := make(ownFacts)
		if b == u.g.entry {
			for v, m := range init {
				in[v] |= m
			}
		}
		for _, p := range preds[b] {
			for v, m := range outs[p] {
				in[v] |= m
			}
		}
		return in
	}
	// The transfer function is not strictly monotone (rebinding a
	// variable replaces its mask), so the fixpoint loop is bounded;
	// in practice two or three rounds converge.
	maxRounds := 4*len(u.g.blocks) + 8
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, b := range u.g.blocks {
			ev.facts = joinIn(b)
			for _, n := range b.nodes {
				ev.node(n)
			}
			if !factsEqual(ev.facts, outs[b]) {
				outs[b] = ev.facts
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Final walk: report (if emit is set) and record return masks for
	// the summary.
	ev.emit = emit
	ev.retMasks = make(map[int]stateMask)
	for _, b := range u.g.blocks {
		ev.facts = joinIn(b)
		for _, n := range b.nodes {
			ev.node(n)
		}
	}
	exit := joinIn(u.g.exit)
	if emit != nil {
		for v, m := range exit {
			if m&stOwned == 0 || ev.deferRelease[v] {
				continue
			}
			if m&stCaptured != 0 {
				// Owned but captured by a scheduled callback: ownership
				// moves into the callback (which is expected to release
				// or hand off), the sanctioned transfer idiom.
				continue
			}
			site, ok := ev.allocSite[v]
			if !ok {
				continue // not allocated in this unit (rebinding artifacts)
			}
			emit(ownFinding{kind: kindLeak, pos: site, msg: fmt.Sprintf(
				"pooled packet %s allocated in %s leaks: no release or ownership hand-off on some path to return",
				v.Name(), u.desc)})
		}
	}
	sum := &ownSummary{params: make(map[int]stateMask), results: make(map[int]stateMask)}
	if u.recv != nil && eng.isTrackable(u.pkg, u.recv) {
		sum.recv = exit[u.recv]
	}
	for i := 0; i < u.sig.Params().Len(); i++ {
		p := u.sig.Params().At(i)
		if eng.isTrackable(u.pkg, p) {
			sum.params[i] = exit[p]
		}
	}
	for i := 0; i < u.sig.Results().Len(); i++ {
		if eng.isPooledPtr(u.sig.Results().At(i).Type()) {
			sum.results[i] = ev.retMasks[i]
		}
	}
	return sum
}

// initFacts seeds the entry state: pooled receiver and parameters are
// borrowed from the caller; so are a literal's captured variables
// (from the literal's own point of view the enclosing frame owns
// them — the enclosing frame's walk separately decides whether the
// capture itself is legal).
func (eng *ownEngine) initFacts(u *ownUnit) ownFacts {
	init := make(ownFacts)
	if u.recv != nil && eng.isTrackable(u.pkg, u.recv) {
		init[u.recv] = stBorrowed
	}
	for i := 0; i < u.sig.Params().Len(); i++ {
		if p := u.sig.Params().At(i); eng.isTrackable(u.pkg, p) {
			init[p] = stBorrowed
		}
	}
	for _, v := range u.captured {
		init[v] = stBorrowed
	}
	return init
}
