package netsim

import (
	"fmt"
	"net/netip"
)

// Protocol identifies the transport protocol carried by a Packet.
type Protocol uint8

// Supported transport protocols.
const (
	ProtoUDP Protocol = iota + 1
	ProtoTCP
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoUDP:
		return "udp"
	case ProtoTCP:
		return "tcp"
	default:
		//simlint:allow allocfree(unknown-protocol fallback only; ProtoUDP/ProtoTCP — the only values the simulator emits — return interned literals above)
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Header size constants used to compute wire sizes, mirroring the real
// encapsulation NS-3 applies.
const (
	etherHeaderBytes = 14
	ipv4HeaderBytes  = 20
	ipv6HeaderBytes  = 40
	udpHeaderBytes   = 8
	tcpHeaderBytes   = 20
)

// TCPFlags is the bitset of TCP control flags on a segment.
type TCPFlags uint8

// TCP control flags.
const (
	FlagSYN TCPFlags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// TCPHeader carries the fields of the simplified TCP implementation.
// Seq and Ack count bytes, as in real TCP.
type TCPHeader struct {
	Flags TCPFlags
	Seq   uint32
	Ack   uint32
}

// Packet is a simulated network packet. Payload holds the real
// application bytes (exploit payloads must survive transit verbatim);
// Pad adds virtual payload bytes that occupy wire capacity without
// being materialized, which keeps multi-gigabyte floods cheap to
// simulate.
//
// Ownership: packets are single-owner values recycled through the
// network's free list. Handing a packet to Node.SendPacket or
// NetDevice.Send transfers ownership — the network frees it into the
// pool at its terminal point (local delivery or any drop), after which
// the sender must not touch it. Callees on the receive side (PacketTap,
// IngressFilter, transport internals) see the packet only for the
// duration of the callback and must not retain the *Packet or the
// p.TCP pointer. Retaining the Payload slice IS allowed: payload
// backing arrays are never pooled, so a handler that keeps delivered
// bytes (exploit payloads, C&C commands) stays correct.
type Packet struct {
	Proto Protocol
	// origin is the id of the node whose SendPacket originated the
	// packet, 0 when it entered the network another way. The sink
	// files its per-source tallies under it.
	origin  uint32
	Src     netip.AddrPort
	Dst     netip.AddrPort
	Payload []byte
	Pad     int
	TCP     *TCPHeader

	// san is the pool sanitizer's bookkeeping: generation stamp plus
	// alloc/release sites under -tags simdebug, a zero-size struct
	// otherwise. It sits before hdr so the zero-size case adds no
	// trailing padding to the struct.
	san sanState

	// hdr is in-struct storage for the TCP header; SetTCP points TCP at
	// it so a pooled packet's header rides the same allocation.
	hdr TCPHeader
}

// SetTCP stamps a TCP header onto the packet without allocating: the
// header lives inside the Packet struct and is recycled with it.
func (p *Packet) SetTCP(flags TCPFlags, seq, ack uint32) {
	p.sanCheck("SetTCP")
	p.hdr = TCPHeader{Flags: flags, Seq: seq, Ack: ack}
	p.TCP = &p.hdr
}

// PayloadSize reports the application-layer size in bytes, including
// virtual padding.
func (p *Packet) PayloadSize() int { return len(p.Payload) + p.Pad }

// Size reports the on-wire frame size in bytes: L2 + L3 + L4 headers
// plus the application payload.
func (p *Packet) Size() int {
	p.sanCheck("Size")
	size := etherHeaderBytes + p.PayloadSize()
	if p.Dst.Addr().Is6() {
		size += ipv6HeaderBytes
	} else {
		size += ipv4HeaderBytes
	}
	switch p.Proto {
	case ProtoTCP:
		size += tcpHeaderBytes
	default:
		size += udpHeaderBytes
	}
	return size
}

// Clone returns a deep copy of the packet. Multicast fan-out clones so
// that each recipient owns its payload.
func (p *Packet) Clone() *Packet {
	p.sanCheck("Clone")
	cp := *p
	if p.Payload != nil {
		cp.Payload = make([]byte, len(p.Payload))
		copy(cp.Payload, p.Payload)
	}
	if p.TCP != nil {
		cp.hdr = *p.TCP
		cp.TCP = &cp.hdr
	}
	cp.sanAlloc()
	return &cp
}

// String renders a compact single-line description for traces.
func (p *Packet) String() string {
	p.sanCheck("String")
	return fmt.Sprintf("%s %s->%s len=%d", p.Proto, p.Src, p.Dst, p.PayloadSize())
}
