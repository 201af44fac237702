package lint

// confine.go is the shard-confinement engine behind the shardconfine
// and crossnode analyzers. It was the static proof obligation in
// front of a sharded parallel event kernel, since deleted; it still
// checks the partition model that kernel needed: every event handler
// touches nothing but the state of its own partition, with
// cross-partition interaction confined to the timestamped message
// path (Node.SendPacket / NetDevice.Send / the link's in-flight
// queue). This engine classifies, for every function reachable from a
// scheduler callback (reach.go), the provenance of each mutated value:
//
//   - own: the handler's receiver and everything reached from it
//     while staying inside its partition subtree. Partition-owned
//     types (the netsim/container infrastructure, the co-located
//     mirai/attacker/defense applications, core.Dev) own their linked
//     structure: a Node reaching its devices, a device its node, a
//     bot its own node's sockets — all shard-local;
//   - foreign: a partition-owned value acquired any other way — read
//     out of control-plane state (faults' linkTarget.dev, churn's
//     Device entries), captured from an enclosing non-partition
//     frame (core's fault closures capturing a Dev), received as a
//     parameter from nowhere, or returned by a seeded crossing
//     (Network.Node registry lookups, NetDevice.Peer);
//   - global: package-level variables, which no partition owns.
//
// Mutating a foreign tracked value (Node, NetDevice, Dev, Container —
// the state a partitioned kernel would race on) or writing a global is
// reported: crossnode for values the handler acquired itself
// (registry/neighbor/control-plane step), shardconfine for globals
// and for foreign state that entered the handler from outside
// (captures, parameters). Calls into the sanctioned boundary APIs are
// never findings; they are recorded in the inventory as the message-
// path crossings.
//
// Like the ownership engine, anything the classifier cannot model
// widens toward silence — a missed finding is recoverable (the
// simdebug confinement sanitizer in internal/netsim catches the
// dynamic side), a false alarm on the hot path is not.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ConfineConfig seeds the shard-confinement engine with the repo's
// partition model. Function keys are "pkgpath.Recv.Name" (funcKey),
// type keys "pkgpath.Name".
type ConfineConfig struct {
	// Module is the module path; only module packages contribute
	// handler roots and call edges.
	Module string
	// SchedPkg is the scheduler package whose Schedule*/NewTicker
	// arguments are precise handler roots.
	SchedPkg string
	// PartitionPkgs: every named type of these packages is
	// partition-owned (shard-local infrastructure and co-located
	// applications).
	PartitionPkgs map[string]bool
	// PartitionTypes: additional partition-owned types by key.
	PartitionTypes map[string]bool
	// TrackedTypes: partition-owned types whose foreign mutation is
	// reported — the data-race surface of the sharded kernel.
	TrackedTypes map[string]bool
	// Crossings: functions returning a value from a different
	// partition (registry lookups, the link-peer accessor).
	Crossings map[string]bool
	// Boundaries: the sanctioned cross-partition message path. Calls
	// are inventoried, never reported.
	Boundaries map[string]bool
	// Barriers: functions that run their func-literal argument in
	// barrier context, marking it as a control-plane mutation of
	// partition state. Mutations inside such a literal are the
	// sanctioned barrier idiom: they are inventoried with class
	// "barrier" instead of reported. A callback armed
	// *inside* a barrier body (Schedule*, an escaping closure) runs
	// later, outside the barrier, and is analyzed as a normal handler.
	Barriers map[string]bool
	// Mutators: seeded receiver-mutating functions, used when the
	// defining package is outside the run (fixtures).
	Mutators map[string]bool
	// ExemptPkgs: package paths (prefix-matched) whose function values
	// never become handler roots — host-side drivers that run off the
	// simulated clock.
	ExemptPkgs map[string]bool
}

// DefaultConfineConfig matches DDoSim's partition model: netsim and
// container infrastructure plus the co-located application layers are
// shard-local; core (except Dev), churn, faults, sim, and obs are
// control-plane.
func DefaultConfineConfig() *ConfineConfig {
	const (
		netsim    = "ddosim/internal/netsim"
		container = "ddosim/internal/container"
		mirai     = "ddosim/internal/mirai"
		attacker  = "ddosim/internal/attacker"
		defense   = "ddosim/internal/defense"
		shttp     = "ddosim/internal/shttp"
		core      = "ddosim/internal/core"
		simpkg    = "ddosim/internal/sim"
	)
	return &ConfineConfig{
		Module:   "ddosim",
		SchedPkg: "ddosim/internal/sim",
		PartitionPkgs: map[string]bool{
			netsim: true, container: true, mirai: true, attacker: true, defense: true, shttp: true,
		},
		PartitionTypes: map[string]bool{
			core + ".Dev": true,
		},
		TrackedTypes: map[string]bool{
			netsim + ".Node":         true,
			netsim + ".NetDevice":    true,
			core + ".Dev":            true,
			container + ".Container": true,
		},
		Crossings: map[string]bool{
			netsim + ".Network.Node":   true,
			netsim + ".Network.Nodes":  true,
			netsim + ".NetDevice.Peer": true,
		},
		Boundaries: map[string]bool{
			netsim + ".Node.SendPacket":      true,
			netsim + ".NetDevice.Send":       true,
			netsim + ".NetDevice.receive":    true,
			netsim + ".UDPSocket.SendTo":     true,
			netsim + ".UDPSocket.SendPadded": true,
			netsim + ".TCPConn.Send":         true,
		},
		Barriers: map[string]bool{
			// Scheduler.Barrier marks a control-plane handler mutating
			// partition state.
			simpkg + ".Scheduler.Barrier": true,
		},
		Mutators: map[string]bool{
			netsim + ".Node.AddAddr":            true,
			netsim + ".Node.AddRoute":           true,
			netsim + ".Node.SetDefaultDevice":   true,
			netsim + ".Node.SetForwarding":      true,
			netsim + ".Node.JoinMulticast":      true,
			netsim + ".Node.LeaveMulticast":     true,
			netsim + ".Node.AddTap":             true,
			netsim + ".Node.SetFilter":          true,
			netsim + ".Node.BindUDP":            true,
			netsim + ".NetDevice.SetUp":         true,
			netsim + ".NetDevice.SetRate":       true,
			netsim + ".NetDevice.SetLossRate":   true,
			netsim + ".NetDevice.SetQueueLimit": true,
			core + ".Dev.SetOnline":             true,
			container + ".Container.Spawn":      true,
			container + ".Container.ExecFile":   true,
			container + ".Container.Kill":       true,
			container + ".Container.Start":      true,
			container + ".Container.Stop":       true,
		},
		ExemptPkgs: map[string]bool{
			"ddosim/cmd":                  true,
			"ddosim/ddosim":               true,
			"ddosim/internal/report":      true,
			"ddosim/internal/experiments": true,
		},
	}
}

// provKind classifies how a handler came to hold a value.
type provKind uint8

const (
	provOwn      provKind = iota // self state, or partition subtree of self
	provGlobal                   // package-level variable
	provStep                     // control-plane state stepping into a partition value
	provCrossing                 // seeded crossing call (registry, peer)
	provParam                    // partition-typed parameter of a non-partition unit
	provCaptured                 // foreign value captured from an enclosing frame
	provUnknown
)

// prov is the provenance of one expression chain.
type prov struct {
	kind provKind
	// inPartition: the chain is inside a partition-owned subtree
	// rooted at the handler's own receiver.
	inPartition bool
	// ft is the type at the foreign transition (the value whose
	// partition was crossed into); nil for own/global/unknown.
	ft types.Type
	// via names the crossing for diagnostics (funcKey or field).
	via string
}

func ownProv(inPartition bool) prov { return prov{kind: provOwn, inPartition: inPartition} }

func (p prov) foreign() bool {
	switch p.kind {
	case provStep, provCrossing, provParam, provCaptured:
		return true
	}
	return false
}

// confFinding is one stored diagnostic, replayed through a Pass.
type confFinding struct {
	analyzer string
	pos      token.Pos
	msg      string
}

// mutSummary records whether a function mutates state reachable from
// its receiver or parameters, directly or transitively.
type mutSummary struct {
	recv   bool
	params map[int]bool
}

// confEngine is the shared engine behind the shardconfine/crossnode
// pair. Prepare runs once over the whole run; each analyzer replays
// its findings per package.
type confEngine struct {
	cfg      *ConfineConfig
	prepared bool

	units      []*confUnit
	byFn       map[*types.Func]*confUnit
	byLit      map[*ast.FuncLit]*confUnit
	namedTypes []*types.Named
	summaries  map[*types.Func]*mutSummary

	partIface  map[*types.Interface]bool
	trackIface map[*types.Interface]bool

	// assigns indexes, per unit, the right-hand sides assigned to each
	// local variable (plus ranged expressions), for provenance lookups.
	assigns map[*confUnit]map[*types.Var][]provSource
	varMemo map[*types.Var]prov

	findings  map[*Package][]confFinding
	inventory []InventoryEntry
}

// provSource is one assignment feeding a variable: either a plain
// expression or the element of a ranged expression.
type provSource struct {
	expr   ast.Expr
	ranged bool
	resIdx int // result index for multi-value calls; -1 otherwise
	unit   *confUnit
}

func newConfEngine(cfg *ConfineConfig) *confEngine {
	return &confEngine{
		cfg:        cfg,
		byFn:       make(map[*types.Func]*confUnit),
		byLit:      make(map[*ast.FuncLit]*confUnit),
		summaries:  make(map[*types.Func]*mutSummary),
		partIface:  make(map[*types.Interface]bool),
		trackIface: make(map[*types.Interface]bool),
		assigns:    make(map[*confUnit]map[*types.Var][]provSource),
		varMemo:    make(map[*types.Var]prov),
		findings:   make(map[*Package][]confFinding),
	}
}

// NewShardConfinement returns the shardconfine and crossnode
// analyzers on one shared engine, in that order.
func NewShardConfinement() (Analyzer, Analyzer) {
	eng := newConfEngine(DefaultConfineConfig())
	return &confAnalyzer{
			name: "shardconfine",
			doc:  "forbid scheduler-reachable writes to package-level state or to captured foreign partition state",
			eng:  eng,
		}, &confAnalyzer{
			name: "crossnode",
			doc:  "forbid handlers that obtain a different node/device and mutate it outside the message path",
			eng:  eng,
		}
}

type confAnalyzer struct {
	name string
	doc  string
	eng  *confEngine
}

func (a *confAnalyzer) Name() string { return a.name }
func (a *confAnalyzer) Doc() string  { return a.doc }

func (a *confAnalyzer) Prepare(pkgs []*Package) { a.eng.prepare(pkgs) }

func (a *confAnalyzer) Run(pass *Pass) {
	for _, f := range a.eng.findings[pass.Pkg] {
		if f.analyzer != a.name {
			continue
		}
		pass.Reportf(a.name, f.pos, "%s", f.msg)
	}
}

// prepare runs unit collection, root marking, reachability,
// mutation-summary fixpoint, and the reporting sweep. Idempotent.
func (eng *confEngine) prepare(pkgs []*Package) {
	if eng.prepared {
		return
	}
	eng.prepared = true
	eng.collectNamedTypes(pkgs)
	for _, pkg := range pkgs {
		eng.units = append(eng.units, eng.collectConfUnits(pkg)...)
	}
	for _, pkg := range pkgs {
		eng.markRoots(pkg)
	}
	eng.propagate()
	eng.computeSummaries()
	for _, u := range eng.units {
		if u.reached {
			eng.reportUnit(u)
		}
	}
}

// ---- mutation summaries ----------------------------------------------

// computeSummaries derives, to a fixpoint, whether each declared
// function mutates state reachable from its receiver or parameters.
func (eng *confEngine) computeSummaries() {
	for round := 0; round < 10; round++ {
		changed := false
		for _, u := range eng.units {
			if u.fn == nil {
				continue
			}
			sum := eng.summarizeUnit(u)
			old := eng.summaries[u.fn]
			if old == nil {
				eng.summaries[u.fn] = sum
				changed = true
				continue
			}
			if sum.recv && !old.recv {
				old.recv = true
				changed = true
			}
			for i := range sum.params {
				if !old.params[i] {
					old.params[i] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

// baseVar walks an expression chain (selectors, indexes, derefs,
// method calls on the chain) down to its base identifier's variable.
func (eng *confEngine) baseVar(u *confUnit, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := objVar(u.pkg, x)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.CallExpr:
			if recv := callReceiver(x); recv != nil {
				e = recv
				continue
			}
			return nil
		default:
			return nil
		}
	}
}

// srcRef names a mutation source within a unit: the receiver, a
// parameter, or nothing trackable.
type srcRef struct {
	recv  bool
	param int // -1 when not a parameter
}

// summarizeUnit scans one declared function for mutations of its
// receiver/parameter subtrees, using current summaries for calls.
func (eng *confEngine) summarizeUnit(u *confUnit) *mutSummary {
	sum := &mutSummary{params: make(map[int]bool)}
	// aliases: locals assigned directly from a receiver/param chain.
	aliases := make(map[*types.Var]srcRef)
	source := func(e ast.Expr) (srcRef, bool) {
		v := eng.baseVar(u, e)
		if v == nil {
			return srcRef{}, false
		}
		if u.recv != nil && v == u.recv {
			return srcRef{recv: true, param: -1}, true
		}
		for i := 0; i < u.sig.Params().Len(); i++ {
			if u.sig.Params().At(i) == v {
				return srcRef{param: i}, true
			}
		}
		if ref, ok := aliases[v]; ok {
			return ref, true
		}
		return srcRef{}, false
	}
	mark := func(ref srcRef) {
		if ref.recv {
			sum.recv = true
		} else if ref.param >= 0 {
			sum.params[ref.param] = true
		}
	}
	// Two passes so aliases established later in the body still
	// resolve (good enough without a full dataflow).
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(u.body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && lit != u.lit {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						v, _ := u.pkg.Info.Defs[id].(*types.Var)
						if v == nil {
							continue
						}
						if ref, ok := source(n.Rhs[i]); ok {
							aliases[v] = ref
						}
					}
				}
				for _, lhs := range n.Lhs {
					if isIdentName(lhs, "_") {
						continue
					}
					if owner, ok := mutationOwner(lhs); ok {
						if ref, ok := source(owner); ok {
							mark(ref)
						}
					}
				}
			case *ast.IncDecStmt:
				if owner, ok := mutationOwner(n.X); ok {
					if ref, ok := source(owner); ok {
						mark(ref)
					}
				}
			case *ast.CallExpr:
				if isBuiltinDelete(n) && len(n.Args) > 0 {
					if ref, ok := source(n.Args[0]); ok {
						mark(ref)
					}
					return true
				}
				fn := eng.funcFor(u.pkg, n)
				if fn == nil {
					return true
				}
				if eng.isMutatingCall(fn) {
					if recvExpr := callReceiver(n); recvExpr != nil {
						if ref, ok := source(recvExpr); ok {
							mark(ref)
						}
					}
				}
				for i, arg := range n.Args {
					if eng.mutatesParam(fn, i) {
						if ref, ok := source(arg); ok {
							mark(ref)
						}
					}
				}
			}
			return true
		})
	}
	return sum
}

// isMutatingCall reports whether fn mutates its receiver subtree,
// from a derived summary, a seed, or — for interface methods — any
// implementing method of the run.
func (eng *confEngine) isMutatingCall(fn *types.Func) bool {
	if eng.cfg.Mutators[funcKey(fn)] {
		return true
	}
	if sum := eng.summaries[fn]; sum != nil && sum.recv {
		return true
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			for _, u := range eng.resolve(fn) {
				if u.fn != nil {
					if eng.cfg.Mutators[funcKey(u.fn)] {
						return true
					}
					if s := eng.summaries[u.fn]; s != nil && s.recv {
						return true
					}
				}
			}
		}
	}
	return false
}

func (eng *confEngine) mutatesParam(fn *types.Func, i int) bool {
	if sum := eng.summaries[fn]; sum != nil && sum.params[i] {
		return true
	}
	return false
}

// ---- provenance classification ---------------------------------------

// isPartitionType reports whether t (deref'd) is partition-owned.
func (eng *confEngine) isPartitionType(t types.Type) bool {
	t = deref(t)
	if named, ok := t.(*types.Named); ok {
		if named.Obj().Pkg() == nil {
			return false
		}
		key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
		if eng.cfg.PartitionTypes[key] || eng.cfg.PartitionPkgs[named.Obj().Pkg().Path()] {
			return true
		}
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		return eng.partitionIface(iface)
	}
	return false
}

// isTrackedType reports whether t (deref'd) is on the reported
// race-surface set.
func (eng *confEngine) isTrackedType(t types.Type) bool {
	if t == nil {
		return false
	}
	t = deref(t)
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		if eng.cfg.TrackedTypes[named.Obj().Pkg().Path()+"."+named.Obj().Name()] {
			return true
		}
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		return eng.trackedIface(iface)
	}
	return false
}

func (eng *confEngine) partitionIface(iface *types.Interface) bool {
	if v, ok := eng.partIface[iface]; ok {
		return v
	}
	eng.partIface[iface] = false // break recursion
	v := false
	for _, named := range eng.namedTypes {
		if implementsIface(named, iface) && eng.isPartitionType(named) {
			v = true
			break
		}
	}
	eng.partIface[iface] = v
	return v
}

func (eng *confEngine) trackedIface(iface *types.Interface) bool {
	if v, ok := eng.trackIface[iface]; ok {
		return v
	}
	eng.trackIface[iface] = false
	v := false
	for _, named := range eng.namedTypes {
		if implementsIface(named, iface) && eng.isTrackedType(named) {
			v = true
			break
		}
	}
	eng.trackIface[iface] = v
	return v
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// unitBase is the provenance of anything a unit conjures locally
// (literals, composites, free-call results). Partition-package code
// is axiomatically shard-local — it runs on the shard that owns its
// state, and only the seeded crossings leave it — so its baseline is
// in-partition; control-plane code starts outside every partition.
func (eng *confEngine) unitBase(u *confUnit) prov {
	return ownProv(eng.cfg.PartitionPkgs[u.pkg.Path])
}

// step applies the partition-transition rule: moving from a chain
// with provenance base into a value of type stepT.
func (eng *confEngine) step(base prov, stepT types.Type, via string) prov {
	if base.kind != provOwn {
		return base // foreign/global/unknown propagate
	}
	if stepT != nil && eng.isPartitionType(stepT) {
		if base.inPartition {
			return ownProv(true)
		}
		return prov{kind: provStep, ft: stepT, via: via}
	}
	return base
}

// classify computes the provenance of an expression chain within a
// reachable unit.
func (eng *confEngine) classify(u *confUnit, e ast.Expr) prov {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return eng.classifyIdent(u, e)
	case *ast.SelectorExpr:
		// Method value or qualified identifier?
		if obj := u.pkg.Info.Uses[e.Sel]; obj != nil {
			if v, ok := obj.(*types.Var); ok && !v.IsField() {
				// pkg.Var qualified reference.
				return eng.classifyVarObj(u, v)
			}
		}
		base := eng.classify(u, e.X)
		return eng.step(base, u.pkg.Info.TypeOf(e), e.Sel.Name)
	case *ast.IndexExpr:
		base := eng.classify(u, e.X)
		return eng.step(base, u.pkg.Info.TypeOf(e), "index")
	case *ast.StarExpr:
		return eng.classify(u, e.X)
	case *ast.CallExpr:
		fn := eng.funcFor(u.pkg, e)
		if fn != nil {
			if eng.cfg.Crossings[funcKey(fn)] {
				return prov{kind: provCrossing, ft: resultType(fn, 0), via: funcKey(fn)}
			}
			if recvExpr := callReceiver(e); recvExpr != nil {
				base := eng.classify(u, recvExpr)
				return eng.step(base, u.pkg.Info.TypeOf(e), fn.Name()+"()")
			}
			// Free function: the result carries the unit's baseline
			// provenance (shard-local in partition code; in control-
			// plane code a partition-typed result is opaque).
			if !eng.isPartitionType(u.pkg.Info.TypeOf(e)) {
				return eng.unitBase(u)
			}
			if eng.unitBase(u).inPartition {
				return ownProv(true)
			}
			return prov{kind: provUnknown}
		}
		if !eng.isPartitionType(u.pkg.Info.TypeOf(e)) {
			return eng.unitBase(u)
		}
		if eng.unitBase(u).inPartition {
			return ownProv(true)
		}
		return prov{kind: provUnknown}
	case *ast.TypeAssertExpr:
		return eng.classify(u, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return eng.classify(u, e.X)
		}
	}
	// Literals, composites, arithmetic: the unit's baseline.
	return eng.unitBase(u)
}

// classifyIdent resolves an identifier's provenance: receiver, param,
// local, captured, or package-level.
func (eng *confEngine) classifyIdent(u *confUnit, id *ast.Ident) prov {
	obj := u.pkg.Info.Uses[id]
	if obj == nil {
		obj = u.pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return eng.unitBase(u)
	}
	return eng.classifyVarObj(u, v)
}

func (eng *confEngine) classifyVarObj(u *confUnit, v *types.Var) prov {
	if isPkgLevel(v) {
		return prov{kind: provGlobal, via: v.Name()}
	}
	// Receiver of this unit or an enclosing unit: own.
	for cur := u; cur != nil; cur = cur.encl {
		if cur.recv != nil && v == cur.recv {
			return ownProv(eng.isPartitionType(v.Type()) || eng.unitBase(u).inPartition)
		}
	}
	// Parameter of this unit or an enclosing one.
	for cur := u; cur != nil; cur = cur.encl {
		for i := 0; i < cur.sig.Params().Len(); i++ {
			if cur.sig.Params().At(i) != v {
				continue
			}
			if !eng.isPartitionType(v.Type()) {
				return eng.unitBase(u)
			}
			if eng.cfg.PartitionPkgs[u.pkg.Path] {
				// Shard-local code trusts its parameters: co-located
				// callers hand it shard-local state, and a control-
				// plane caller passing foreign state is reported at
				// its own call site via the mutation summaries.
				return ownProv(true)
			}
			if recvT := eng.unitRecvType(cur); recvT != nil && eng.isPartitionType(recvT) {
				// Partition infrastructure passing shard-local peers
				// around (Node.handleReceive(in *NetDevice, …)).
				return ownProv(true)
			}
			p := prov{kind: provParam, ft: v.Type(), via: v.Name()}
			if cur != u {
				p.kind = provCaptured
			}
			return p
		}
	}
	// Local of this unit, or captured from an enclosing unit.
	owner := eng.declaringUnit(u, v)
	if owner == nil {
		return prov{kind: provUnknown}
	}
	p := eng.varProv(owner, v)
	if owner != u && p.foreign() {
		// Foreign state entering through a capture is shardconfine's
		// business regardless of how the enclosing frame got it.
		p.kind = provCaptured
	}
	return p
}

// unitRecvType reports the receiver type of u or its nearest
// enclosing method, or nil.
func (eng *confEngine) unitRecvType(u *confUnit) types.Type {
	for cur := u; cur != nil; cur = cur.encl {
		if cur.recv != nil {
			return cur.recv.Type()
		}
	}
	return nil
}

// declaringUnit finds the unit (u or an enclosing one) whose body
// lexically contains v's declaration.
func (eng *confEngine) declaringUnit(u *confUnit, v *types.Var) *confUnit {
	for cur := u; cur != nil; cur = cur.encl {
		if v.Pos() >= cur.body.Pos() && v.Pos() < cur.body.End() {
			// Exclude positions inside a *nested* literal of cur: the
			// innermost containing unit wins, and we walk outward from
			// u, so the first hit is correct for captured variables.
			return cur
		}
	}
	return nil
}

// varProv computes (memoized) the provenance of a local variable from
// every assignment feeding it; foreign sources dominate.
func (eng *confEngine) varProv(u *confUnit, v *types.Var) prov {
	if p, ok := eng.varMemo[v]; ok {
		return p
	}
	eng.varMemo[v] = prov{kind: provUnknown} // cycle guard
	sources := eng.unitAssigns(u)[v]
	result := eng.unitBase(u)
	known := false
	for _, src := range sources {
		var p prov
		if src.ranged {
			base := eng.classify(src.unit, src.expr)
			p = eng.step(base, rangeElemType(src.unit.pkg, src.expr), "range")
		} else if src.resIdx >= 0 {
			call, ok := ast.Unparen(src.expr).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := eng.funcFor(src.unit.pkg, call)
			base := eng.classify(src.unit, src.expr)
			var rt types.Type
			if fn != nil {
				rt = resultType(fn, src.resIdx)
			}
			p = eng.step(base, rt, "call")
		} else {
			p = eng.classify(src.unit, src.expr)
		}
		known = true
		if p.foreign() || p.kind == provGlobal {
			result = p
			break
		}
		if p.kind == provOwn && p.inPartition {
			result = p
		}
	}
	if !known && len(sources) == 0 {
		// No recorded assignment (e.g. named result, loop var of a
		// non-range loop): stay at the unit's baseline.
		result = eng.unitBase(u)
	}
	eng.varMemo[v] = result
	return result
}

// unitAssigns builds (lazily) the assignment index for a unit.
func (eng *confEngine) unitAssigns(u *confUnit) map[*types.Var][]provSource {
	if m, ok := eng.assigns[u]; ok {
		return m
	}
	m := make(map[*types.Var][]provSource)
	record := func(id *ast.Ident, src provSource) {
		if id == nil || id.Name == "_" {
			return
		}
		v, _ := u.pkg.Info.Defs[id].(*types.Var)
		if v == nil {
			v, _ = u.pkg.Info.Uses[id].(*types.Var)
		}
		if v == nil {
			return
		}
		m[v] = append(m[v], src)
	}
	ast.Inspect(u.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != u.lit {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id, provSource{expr: n.Rhs[i], resIdx: -1, unit: u})
					}
				}
			} else if len(n.Rhs) == 1 {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id, provSource{expr: n.Rhs[0], resIdx: i, unit: u})
					}
				}
			}
		case *ast.RangeStmt:
			if id, ok := n.Value.(*ast.Ident); ok {
				record(id, provSource{expr: n.X, ranged: true, resIdx: -1, unit: u})
			}
		}
		return true
	})
	eng.assigns[u] = m
	return m
}

// ---- reporting -------------------------------------------------------

// reportUnit walks one reachable unit's body (excluding nested
// literals) and emits findings and inventory entries.
func (eng *confEngine) reportUnit(u *confUnit) {
	seen := make(map[string]bool)
	barrier := u.inBarrier()
	emit := func(analyzer string, pos token.Pos, subject, detail, msg string) {
		key := fmt.Sprintf("%d/%s/%s", pos, analyzer, msg)
		if seen[key] {
			return
		}
		seen[key] = true
		if barrier {
			// Sanctioned barrier idiom: a marked control-plane
			// mutation. Inventory it for the audit trail,
			// keep the analyzer that would have fired, don't report.
			eng.addInventory(u, pos, analyzer, "barrier", subject, detail)
			return
		}
		eng.findings[u.pkg] = append(eng.findings[u.pkg], confFinding{analyzer: analyzer, pos: pos, msg: msg})
		eng.addInventory(u, pos, analyzer, "violation", subject, detail)
	}
	checkMutation := func(owner ast.Expr, pos token.Pos, what string) {
		p := eng.classify(u, owner)
		switch {
		case p.kind == provGlobal:
			emit("shardconfine", pos, p.via, what, fmt.Sprintf(
				"handler code %s package-level state %q; no partition owns it under a sharded kernel (reached via %s)",
				what, p.via, u.chain()))
		case p.foreign() && eng.isTrackedType(p.ft):
			subject := typeStr(p.ft)
			switch p.kind {
			case provCrossing:
				emit("crossnode", pos, subject, what, fmt.Sprintf(
					"handler obtains %s via %s and %s it directly; cross-partition effects must use the message path (reached via %s)",
					subject, p.via, what, u.chain()))
			case provStep:
				emit("crossnode", pos, subject, what, fmt.Sprintf(
					"handler reaches from control-plane state into %s and %s it directly; cross-partition effects must use the message path (reached via %s)",
					subject, what, u.chain()))
			case provCaptured:
				emit("shardconfine", pos, subject, what, fmt.Sprintf(
					"handler %s captured foreign %s; state outside the handler's partition must be reached through the message path (reached via %s)",
					what, subject, u.chain()))
			case provParam:
				emit("shardconfine", pos, subject, what, fmt.Sprintf(
					"handler %s foreign %s received as parameter %q; state outside the handler's partition must be reached through the message path (reached via %s)",
					what, subject, p.via, u.chain()))
			}
		}
	}
	ast.Inspect(u.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != u.lit {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isIdentName(lhs, "_") {
					continue
				}
				if n.Tok == token.DEFINE {
					continue
				}
				if owner, ok := mutationOwner(lhs); ok {
					checkMutation(owner, lhs.Pos(), "writes")
				} else if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					// Direct store to a variable: only interesting when
					// the variable itself is package-level.
					if v, ok := objVar(u.pkg, id); ok && isPkgLevel(v) {
						checkMutation(id, lhs.Pos(), "writes")
					}
				}
			}
		case *ast.IncDecStmt:
			if owner, ok := mutationOwner(n.X); ok {
				checkMutation(owner, n.X.Pos(), "writes")
			} else if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if v, ok := objVar(u.pkg, id); ok && isPkgLevel(v) {
					checkMutation(id, n.X.Pos(), "writes")
				}
			}
		case *ast.CallExpr:
			if isBuiltinDelete(n) && len(n.Args) > 0 {
				checkMutation(n.Args[0], n.Pos(), "mutates")
				return true
			}
			fn := eng.funcFor(u.pkg, n)
			if fn == nil {
				return true
			}
			if eng.cfg.Boundaries[funcKey(fn)] {
				subject := ""
				if recvExpr := callReceiver(n); recvExpr != nil {
					subject = typeStr(u.pkg.Info.TypeOf(recvExpr))
				}
				eng.addInventory(u, n.Pos(), "", "boundary", subject, funcKey(fn))
				return true
			}
			if eng.isMutatingCall(fn) {
				if recvExpr := callReceiver(n); recvExpr != nil {
					checkMutation(recvExpr, n.Pos(), "mutates")
				}
			}
			for i, arg := range n.Args {
				if eng.mutatesParam(fn, i) {
					checkMutation(arg, arg.Pos(), "mutates")
				}
			}
		}
		return true
	})
}

// ---- small helpers ---------------------------------------------------

// mutationOwner extracts the chain whose owner a write mutates:
// x.f = …, x[i] = …, *x = … all mutate the state behind x. A bare
// identifier has no owner chain (handled separately for globals).
func mutationOwner(lhs ast.Expr) (ast.Expr, bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return lhs.X, true
	case *ast.IndexExpr:
		return lhs.X, true
	case *ast.StarExpr:
		return lhs.X, true
	}
	return nil, false
}

// callReceiver extracts the receiver expression of a method call.
func callReceiver(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

func isBuiltinDelete(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "delete"
}

func isIdentName(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

func objVar(pkg *Package, id *ast.Ident) (*types.Var, bool) {
	obj := pkg.Info.Uses[id]
	if obj == nil {
		obj = pkg.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	return v, ok
}

// isPkgLevel reports whether v is a package-level variable.
func isPkgLevel(v *types.Var) bool {
	return v != nil && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// resultType reports result i of fn's signature, or nil.
func resultType(fn *types.Func, i int) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || i >= sig.Results().Len() {
		return nil
	}
	return sig.Results().At(i).Type()
}

// rangeElemType reports the element type produced by ranging over e.
func rangeElemType(pkg *Package, e ast.Expr) types.Type {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return nil
	}
	switch t := t.Underlying().(type) {
	case *types.Slice:
		return t.Elem()
	case *types.Array:
		return t.Elem()
	case *types.Map:
		return t.Elem()
	case *types.Pointer:
		if arr, ok := t.Elem().Underlying().(*types.Array); ok {
			return arr.Elem()
		}
	case *types.Chan:
		return t.Elem()
	}
	return nil
}

func typeStr(t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
