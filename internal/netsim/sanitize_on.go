//go:build simdebug

package netsim

// simdebug build: the runtime half of the pooled-packet lifetime
// tooling, cross-validating the pktown/stalecapture static analyzers
// in internal/lint. The protocol, AddressSanitizer-style:
//
//   - release stamps the packet (generation bump, release site),
//     zeroes it, then poisons Pad with a sentinel value so stale
//     readers see garbage deterministically;
//   - re-allocation from the free list clears the poison and records
//     the new alloc site;
//   - every packet touchpoint (Size, SetTCP, Clone, String, the
//     device/node send and receive paths) checks the released bit and
//     panics with the operation plus the alloc/release sites.
//
// The checks live behind method calls that compile to no-ops without
// this tag (sanitize_off.go), so arming the sanitizer is purely a
// build-tag decision: `go test -tags simdebug ./internal/netsim/...`.

import (
	"fmt"
	"runtime"
	"strings"
)

// sanState rides inside every Packet (before hdr) under simdebug.
type sanState struct {
	// gen counts recycles of this struct: bumped at every release, so
	// a reference that outlives a release can be told apart from the
	// packet's next life — the same generation-stamp idea the
	// scheduler uses for event slots.
	gen      uint64
	released bool
	allocAt  string
	freedAt  string
}

// poisonPad is written into released packets: Pad is made hugely
// negative so any wire-size computation on a stale packet produces an
// absurd value even if the panic were somehow bypassed.
const poisonPad = -0x5eedfeed

// sanSite reports the first interesting caller frame — skipping the
// sanitizer itself and the pool/packet internals, so the recorded
// site is the application-level line that allocated or released.
func sanSite() string {
	pcs := make([]uintptr, 24)
	n := runtime.Callers(2, pcs)
	frames := runtime.CallersFrames(pcs[:n])
	last := "unknown"
	for {
		f, more := frames.Next()
		last = fmt.Sprintf("%s:%d", f.File, f.Line)
		if !strings.HasSuffix(f.File, "/sanitize_on.go") &&
			!strings.HasSuffix(f.File, "/pool.go") &&
			!strings.HasSuffix(f.File, "/packet.go") {
			return last
		}
		if !more {
			return last
		}
	}
}

// sanAlloc marks p live and records where. The generation survives
// from the previous life (it is bumped at release, not here).
func (p *Packet) sanAlloc() {
	p.san.released = false
	p.san.allocAt = sanSite()
	p.san.freedAt = ""
}

// sanUnpoison clears the poison pattern when a packet leaves the free
// list, restoring the zeroed-struct contract of putPacket.
func (p *Packet) sanUnpoison() {
	p.Pad = 0
}

// sanRelease stamps a release; a second release of the same live-ness
// is the double-free the pool cannot survive silently.
func (p *Packet) sanRelease() {
	if p.san.released {
		panic(fmt.Sprintf(
			"netsim: double release of pooled packet at %s (allocated at %s, first released at %s)",
			sanSite(), p.san.allocAt, p.san.freedAt))
	}
	p.san.released = true
	p.san.gen++
	p.san.freedAt = sanSite()
}

// sanPoison writes the sentinel pattern; applied after putPacket has
// zeroed the struct.
func (p *Packet) sanPoison() {
	p.Pad = poisonPad
}

// sanCheck panics if p was released: this is the use-after-release
// the exploit chain of the paper weaponizes, caught at the first
// touch instead of as silent cross-flow corruption.
func (p *Packet) sanCheck(op string) {
	if p.san.released {
		panic(fmt.Sprintf(
			"netsim: use of released packet: %s at %s (allocated at %s, released at %s, generation %d)",
			op, sanSite(), p.san.allocAt, p.san.freedAt, p.san.gen))
	}
}

// SanitizerEnabled reports whether this binary carries the simdebug
// pool sanitizer.
func SanitizerEnabled() bool { return true }

// Generation reports how many times this packet struct has been
// recycled through the free list.
func (p *Packet) Generation() uint64 { return p.san.gen }
