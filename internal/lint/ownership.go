package lint

// ownership.go is the flow-sensitive dataflow engine behind the
// pktown and stalecapture analyzers. It tracks where the single
// ownership of each pooled *netsim.Packet is at every program point,
// per unit of reach.go's unit table, over the CFGs built by cfg.go,
// and summarizes each function's effect on its pooled parameters so
// facts propagate interprocedurally across the send path — RacerD-style
// compositional summaries rather than whole-program abstract
// interpretation. The ownSummary fixpoint is lint's only summary
// fixpoint. It looks summaries up by static callee at each call site
// and treats interface and function-value calls as borrows, so it
// needs no call-graph edges.
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

// The packet pool's contract, by function key ("pkgpath.Recv.Name").
// The seeds take precedence over derived summaries, so fixtures
// analyzed without the netsim package in the run still see the real
// transfer semantics.
var (
	// poolTypes names the pooled struct types ("pkgpath.Name");
	// pointers to these are tracked.
	poolTypes = map[string]bool{netsimPkg + ".Packet": true}
	// ownAllocs return a fresh owned packet.
	ownAllocs = map[string]bool{
		netsimPkg + ".Network.AllocPacket": true,
		netsimPkg + ".Network.getPacket":   true,
		netsimPkg + ".Packet.Clone":        true,
		// Node-level pool surface: the same network-wide pool, reached
		// through the node that sends or receives.
		netsimPkg + ".Node.AllocPacket": true,
		netsimPkg + ".Node.getPacket":   true,
		netsimPkg + ".Node.clonePacket": true,
	}
	// ownReleases return their pooled argument to the free list.
	ownReleases = map[string]bool{
		netsimPkg + ".Network.ReleasePacket": true,
		netsimPkg + ".Network.putPacket":     true,
		netsimPkg + ".Node.ReleasePacket":    true,
		netsimPkg + ".Node.putPacket":        true,
	}
	// ownConsumes take ownership of their pooled argument (terminal
	// send).
	ownConsumes = map[string]bool{
		netsimPkg + ".Node.SendPacket": true,
		netsimPkg + ".NetDevice.Send":  true,
	}
)

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
	for i, m := range o.params { //simlint:allow maporder(a bitwise OR does not depend on order)
		v := s.params[i]
		or(&v, m)
		s.params[i] = v
	}
	for i, m := range o.results { //simlint:allow maporder(a bitwise OR does not depend on order)
		v := s.results[i]
		or(&v, m)
		s.results[i] = v
	}
	return changed
}

// ownEngine runs the whole-run analysis once (Prepare) and replays
// the stored findings through each package's Pass so allow
// annotations and diagnostic ordering work exactly like every other
// analyzer.
type ownEngine struct {
	prepared  bool
	summaries map[*types.Func]*ownSummary
	findings  map[*Package][]ownFinding
}

// ownAnalyzer is pktown or stalecapture: one view of the shared
// engine's findings, selected by ownKind.analyzer.
type ownAnalyzer struct {
	eng       *ownEngine
	name, doc string
}

// NewOwnership returns the pktown and stalecapture analyzers over one
// shared ownership engine, so the whole-run dataflow fixpoint happens
// once.
//
// pktown is the static half of the pooled-packet lifetime tooling:
// use-after-release, double-release, release-after-hand-off, and pool
// leaks, cross-validated at runtime by the simdebug sanitizer in
// internal/netsim.
//
// stalecapture flags scheduler callbacks (function-literal arguments
// of sim.Schedule, ScheduleAt and NewTicker) that capture pooled
// values whose lifetime ends before the event can fire under the
// slot/generation kernel: borrowed packets (including range-loop
// variables over packet containers) whose borrow expires when the
// scheduling frame returns, packets already released or handed off at
// capture time, and owned packets released while a pending callback
// still holds them.
func NewOwnership() (pktown, stalecapture Analyzer) {
	eng := &ownEngine{
		summaries: make(map[*types.Func]*ownSummary),
		findings:  make(map[*Package][]ownFinding),
	}
	return &ownAnalyzer{eng, "pktown", "use-after-release, double-release, and leaks of pooled *netsim.Packet values"},
		&ownAnalyzer{eng, "stalecapture", "scheduler callbacks capturing pooled values whose lifetime ends before the event fires"}
}

func (a *ownAnalyzer) Name() string { return a.name }
func (a *ownAnalyzer) Doc() string  { return a.doc }

// Prepare is idempotent across the shared engine.
func (a *ownAnalyzer) Prepare(pkgs []*Package) { a.eng.Prepare(pkgs) }

// Run replays the engine's findings of this analyzer's kinds through
// the pass's allow filter.
func (a *ownAnalyzer) Run(pass *Pass) {
	for _, f := range a.eng.findings[pass.Pkg] {
		if f.kind.analyzer() == a.name {
			pass.Reportf(a.name, f.pos, "%s", f.msg)
		}
	}
}

// Prepare builds a CFG for every unit in pkgs, computes the function
// summaries to a fixpoint, then runs one reporting sweep. Idempotent:
// the second analyzer sharing the engine is a no-op.
func (eng *ownEngine) Prepare(pkgs []*Package) {
	if eng.prepared {
		return
	}
	eng.prepared = true
	units := collectUnits(pkgs)
	for _, u := range units {
		u.g = buildCFG(u.body)
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
		seen := make(map[ownFinding]bool)
		eng.analyzeUnit(u, func(f ownFinding) {
			if seen[f] {
				return
			}
			seen[f] = true
			eng.findings[u.pkg] = append(eng.findings[u.pkg], f)
		})
	}
}

// isTrackable reports whether v is a function-scoped pooled pointer —
// the only thing the engine keeps facts for. Package-level variables
// and struct fields are shared state; they widen to unknown at the
// point of use instead.
func isTrackable(pkg *Package, v *types.Var) bool {
	if v == nil || v.IsField() || !isPooledPtr(v.Type()) {
		return false
	}
	if v.Parent() == nil || v.Parent() == pkg.Types.Scope() {
		return false
	}
	return true
}

// isPooledPtr reports whether t is *T for a type in poolTypes.
func isPooledPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return poolTypes[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

// funcKey renders fn as "pkgpath.Recv.Name" for the contract tables.
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
func (eng *ownEngine) analyzeUnit(u *unit, emit func(ownFinding)) *ownSummary {
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
		for v, m := range exit { //simlint:allow maporder(RunWith sorts every diagnostic before return)
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
	if recv := u.sig.Recv(); recv != nil && isTrackable(u.pkg, recv) {
		sum.recv = exit[recv]
	}
	for i := 0; i < u.sig.Params().Len(); i++ {
		p := u.sig.Params().At(i)
		if isTrackable(u.pkg, p) {
			sum.params[i] = exit[p]
		}
	}
	for i := 0; i < u.sig.Results().Len(); i++ {
		if isPooledPtr(u.sig.Results().At(i).Type()) {
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
func (eng *ownEngine) initFacts(u *unit) ownFacts {
	init := make(ownFacts)
	if recv := u.sig.Recv(); recv != nil && isTrackable(u.pkg, recv) {
		init[recv] = stBorrowed
	}
	for i := 0; i < u.sig.Params().Len(); i++ {
		if p := u.sig.Params().At(i); isTrackable(u.pkg, p) {
			init[p] = stBorrowed
		}
	}
	if u.lit != nil {
		for _, v := range capturedVars(u.pkg, u.lit) {
			if isTrackable(u.pkg, v) {
				init[v] = stBorrowed
			}
		}
	}
	return init
}
