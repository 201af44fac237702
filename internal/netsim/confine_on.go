//go:build simdebug

package netsim

// simdebug build: the runtime half of the shard-confinement tooling,
// cross-validating the shardconfine/crossnode static analyzers in
// internal/lint the same way the pool sanitizer (sanitize_on.go)
// cross-validates pktown.
//
// "Which partition is executing" is an ambient fact: while a node's IP
// input path (handleReceive) or loopback delivery runs, that node owns
// the network's handler slot. Every administrative mutator of Node and
// NetDevice state checks that slot — mutating a *different* node's
// tracked state from inside a delivery breaks the partition model the
// analyzers prove, and it panics here with both node names and the
// call site.
//
// The owner slot is the Network's confCell. Control-plane code (churn,
// faults, supervisors) runs outside any delivery: the owner is nil
// there, so its cross-partition writes are sanctioned, replacing the
// //simlint:allow inventory the analyzers used to carry.

import (
	"fmt"
	"runtime"
	"strings"
)

// confCell is one partition's ambient-owner slot: the node whose
// handler is currently executing on that partition, or nil outside
// packet delivery.
type confCell struct{ owner *Node }

// confineEnter stamps n as the executing partition, returning the
// previous owner for nested deliveries (forwarding, loopback).
func confineEnter(n *Node) *Node {
	cell := &n.net.conf
	prev := cell.owner
	cell.owner = n
	return prev
}

// confineExit restores the previous ambient owner.
func confineExit(n *Node, prev *Node) { n.net.conf.owner = prev }

// confSite reports the first caller frame outside the confinement
// machinery and the netsim mutators — the application-level line that
// performed the foreign mutation.
func confSite() string {
	pcs := make([]uintptr, 24)
	n := runtime.Callers(2, pcs)
	frames := runtime.CallersFrames(pcs[:n])
	last := "unknown"
	for {
		f, more := frames.Next()
		last = fmt.Sprintf("%s:%d", f.File, f.Line)
		if !strings.HasSuffix(f.File, "/confine_on.go") &&
			!strings.HasSuffix(f.File, "/node.go") &&
			!strings.HasSuffix(f.File, "/device.go") &&
			!strings.HasSuffix(f.File, "/udp.go") {
			return last
		}
		if !more {
			return last
		}
	}
}

// confineCheck panics when a handler owned by one node mutates the
// tracked state of another: the cross-partition write the partition
// model allows only through the message path.
func (n *Node) confineCheck(op string) {
	if n == nil {
		return
	}
	if owner := n.net.conf.owner; owner != nil && owner != n {
		panic(fmt.Sprintf(
			"netsim: shard-confinement violation: %s on foreign node %q inside a handler owned by node %q at %s",
			op, n.name, owner.name, confSite()))
	}
}

// confineCheck on a device delegates to its owning node.
func (d *NetDevice) confineCheck(op string) {
	if d != nil && d.node != nil {
		d.node.confineCheck(op)
	}
}

// ConfinementEnabled reports whether this binary carries the simdebug
// confinement sanitizer.
func ConfinementEnabled() bool { return true }
