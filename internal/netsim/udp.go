package netsim

import (
	"fmt"
	"net/netip"
)

// DatagramHandler receives a delivered UDP datagram. pad reports how
// many virtual payload bytes accompanied the real ones.
type DatagramHandler func(src netip.AddrPort, payload []byte, pad int)

// UDPSocket is a bound UDP endpoint on a node. Sockets are event-driven:
// incoming datagrams invoke the handler inline; there is no blocking
// receive.
type UDPSocket struct {
	node    *Node
	port    uint16
	handler DatagramHandler
	closed  bool

	RxDatagrams uint64
	RxBytes     uint64
	TxDatagrams uint64
}

// BindUDP binds a UDP socket on port. Port 0 picks an ephemeral port.
// Binding an in-use port fails.
func (n *Node) BindUDP(port uint16, h DatagramHandler) (*UDPSocket, error) {
	if port == 0 {
		port = n.ephemeralPort()
		if port == 0 {
			return nil, fmt.Errorf("netsim: node %s: no free ephemeral UDP ports", n.name)
		}
	}
	if _, busy := n.udpPorts[port]; busy {
		return nil, fmt.Errorf("netsim: node %s: UDP port %d already bound", n.name, port)
	}
	s := &UDPSocket{node: n, port: port, handler: h}
	n.udpPorts[port] = s
	return s, nil
}

func (n *Node) ephemeralPort() uint16 {
	for p := uint16(49152); p != 0; p++ { // wraps to 0 after 65535
		if _, busy := n.udpPorts[p]; !busy {
			return p
		}
	}
	return 0
}

// Port reports the bound local port.
func (s *UDPSocket) Port() uint16 { return s.port }

// Node reports the owning node.
func (s *UDPSocket) Node() *Node { return s.node }

// Close releases the port. Further sends are dropped.
func (s *UDPSocket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.node.udpPorts, s.port)
}

// SendTo transmits payload to dst from this socket's port.
func (s *UDPSocket) SendTo(dst netip.AddrPort, payload []byte) {
	s.SendPadded(dst, payload, 0)
}

// SendPadded transmits payload plus pad virtual bytes. Flood traffic
// uses padding so that gigabytes of attack volume occupy wire time and
// queue space without being materialized in memory.
func (s *UDPSocket) SendPadded(dst netip.AddrPort, payload []byte, pad int) {
	if s.closed {
		return
	}
	src := s.localAddrFor(dst.Addr())
	pkt := s.node.getPacket()
	pkt.UID = s.node.NextUID()
	pkt.Proto = ProtoUDP
	pkt.Src = netip.AddrPortFrom(src, s.port)
	pkt.Dst = dst
	pkt.Payload = payload
	pkt.Pad = pad
	s.TxDatagrams++
	s.node.SendPacket(pkt)
}

func (s *UDPSocket) localAddrFor(dst netip.Addr) netip.Addr {
	if dst.Is6() {
		return s.node.Addr6()
	}
	return s.node.Addr4()
}

func (s *UDPSocket) deliver(pkt *Packet) {
	if s.closed {
		return
	}
	s.RxDatagrams++
	s.RxBytes += uint64(pkt.PayloadSize())
	if s.handler != nil {
		s.handler(pkt.Src, pkt.Payload, pkt.Pad)
	}
}
