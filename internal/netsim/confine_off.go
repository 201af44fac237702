//go:build !simdebug

package netsim

// Release build: the shard-confinement sanitizer compiles away. The
// enter/exit stamps and every mutator's confineCheck are empty
// functions the compiler inlines to nothing, so the delivery hot path
// keeps its release-build shape, and the Network's owner cell is a
// zero-size field.
//
// Build with -tags simdebug to arm the sanitizer (confine_on.go):
// packet deliveries stamp their owning node on the Network's cell, and
// any Node/NetDevice administrative mutation against a different node
// panics with both node names and the mutation site.
// The shardconfine/crossnode static analyzers (internal/lint) catch
// the same access class at compile time; the sanitizer cross-validates
// it at runtime.

// confCell is the ambient-owner slot; empty here.
type confCell struct{}

func confineEnter(*Node) *Node { return nil }

func confineExit(*Node, *Node) {}

func (n *Node) confineCheck(string) {}

func (d *NetDevice) confineCheck(string) {}

// ConfinementEnabled reports whether this binary carries the simdebug
// confinement sanitizer.
func ConfinementEnabled() bool { return false }
