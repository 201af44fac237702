package netsim

import (
	"fmt"
	"net/netip"
	"slices"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// PacketTap observes packets as a node delivers them locally. Taps feed
// TServer's per-second accounting and the defense feature extractor.
type PacketTap func(at sim.Time, pkt *Packet)

// Node is a simulated network endpoint or router, the counterpart of
// ns3::Node. A node owns devices, local addresses, a host-route table
// (sufficient for DDoSim's star topology), its UDP sockets, and
// optional applications; its TCP connections and listeners are in the
// network's demux tables, keyed by the node's id.
//
// The address, multicast-group and UDP-socket tables are short slices
// searched linearly — a host holds two addresses and one to three
// sockets — so the per-packet path hashes nothing. Removing an entry
// clears the vacated slot (slices.Delete), so nothing removed, such as
// a closed socket and the handler closure it holds, stays reachable
// from the backing array.
type Node struct {
	name  string
	id    uint32 // 1 + position in Network.nodes; stamped on packets it originates
	net   *Network
	sched *sim.Scheduler

	devs   []*NetDevice
	addrs  []netip.Addr
	addr4  netip.Addr // lowest IPv4 address in addrs
	addr6  netip.Addr // lowest IPv6 address in addrs
	routes map[netip.Addr]*NetDevice
	defDev *NetDevice

	forward   bool
	multicast []netip.Addr

	udpPorts []*UDPSocket

	// flowHint is the flow-table entry this node's last originated
	// packet was accounted to; see FlowTable.record.
	flowHint int32

	taps   []PacketTap
	filter IngressFilter
}

// IngressFilter inspects a packet about to be delivered locally and
// reports whether to accept it. Rejected packets are dropped before
// taps or sockets see them — a host firewall, the deployment point
// for the §V-A mitigation use case.
type IngressFilter func(pkt *Packet) bool

// Name reports the node's display name.
func (n *Node) Name() string { return n.name }

// Sched exposes the scheduler driving this node.
func (n *Node) Sched() *sim.Scheduler { return n.sched }

// Network reports the network this node belongs to.
func (n *Node) Network() *Network { return n.net }

// SetForwarding enables IP forwarding, turning the node into a router.
func (n *Node) SetForwarding(on bool) {
	n.forward = on
}

// AddAddr assigns an address to the node. Nodes may hold both IPv4 and
// IPv6 addresses (DDoSim is dual-stack; the Dnsmasq exploit needs v6).
func (n *Node) AddAddr(a netip.Addr) {
	if n.HasAddr(a) {
		return
	}
	n.addrs = append(n.addrs, a)
	low := &n.addr4
	if a.Is6() {
		low = &n.addr6
	}
	if !low.IsValid() || a.Less(*low) {
		*low = a
	}
}

// HasAddr reports whether the node owns address a.
func (n *Node) HasAddr(a netip.Addr) bool { return slices.Contains(n.addrs, a) }

// Addrs returns the node's addresses in sorted order.
func (n *Node) Addrs() []netip.Addr {
	out := append(make([]netip.Addr, 0, len(n.addrs)), n.addrs...)
	slices.SortFunc(out, netip.Addr.Compare)
	return out
}

// Addr4 returns the node's first IPv4 address, or the zero Addr.
func (n *Node) Addr4() netip.Addr { return n.addr4 }

// Addr6 returns the node's first IPv6 address, or the zero Addr.
func (n *Node) Addr6() netip.Addr { return n.addr6 }

// AddRoute installs a host route: packets destined to dst leave via dev.
func (n *Node) AddRoute(dst netip.Addr, dev *NetDevice) {
	n.routes[dst] = dev
}

// SetDefaultDevice installs the device used when no host route matches —
// the single uplink of a leaf host.
func (n *Node) SetDefaultDevice(dev *NetDevice) {
	n.defDev = dev
}

// DefaultDevice reports the node's default (uplink) device, or nil.
func (n *Node) DefaultDevice() *NetDevice { return n.defDev }

// JoinMulticast subscribes the node to group (e.g. ff02::1:2, the
// All-DHCP-Relay-Agents-and-Servers group Dnsmasq listens on).
func (n *Node) JoinMulticast(group netip.Addr) {
	if !group.IsMulticast() {
		panic(fmt.Sprintf("netsim: JoinMulticast(%s): not a multicast address", group))
	}
	if !slices.Contains(n.multicast, group) {
		n.multicast = append(n.multicast, group)
	}
}

// LeaveMulticast unsubscribes the node from group.
func (n *Node) LeaveMulticast(group netip.Addr) {
	if i := slices.Index(n.multicast, group); i >= 0 {
		n.multicast = slices.Delete(n.multicast, i, i+1)
	}
}

// AddTap registers an observer for locally-delivered packets.
func (n *Node) AddTap(tap PacketTap) {
	n.taps = append(n.taps, tap)
}

// SetFilter installs (or, with nil, removes) the node's ingress
// filter.
func (n *Node) SetFilter(f IngressFilter) {
	n.filter = f
}

// SendPacket routes a locally-originated packet: delivered in place when
// addressed to this node, otherwise queued on the route's device.
// SendPacket takes ownership of pkt (see Packet).
//
//simlint:hotpath
func (n *Node) SendPacket(pkt *Packet) {
	pkt.sanCheck("Node.SendPacket")
	pkt.origin = n.id
	if ft := n.net.flows; ft != nil {
		// Flow accounting happens at origination so records describe
		// offered load; see flow.go.
		ft.record(pkt, n.sched.Now(), &n.flowHint)
	}
	dst := pkt.Dst.Addr()
	if n.HasAddr(dst) {
		// Loopback: deliver after a negligible local delay to keep
		// event ordering sane. SendPacket owns pkt by contract (not a
		// borrow as the analyzer must assume for parameters), the event
		// cannot be cancelled, and the callback itself releases the
		// packet — audited 2026-08: ownership moves into the callback.
		// The closure allocation is loopback-only: the flood hot path
		// egresses through dev.Send below and never takes this branch.
		//simlint:allow stalecapture,allocfree(SendPacket owns pkt and transfers it into the uncancellable loopback event, which releases it; self-addressed traffic only, off the device-tx flood path)
		n.sched.Schedule(sim.Microsecond, srcLoopback, func() {
			n.deliverLocal(pkt)
			n.putPacket(pkt)
		})
		return
	}
	dev := n.lookupRoute(dst)
	if dev == nil {
		n.drop(DropNoRoute)
		n.putPacket(pkt)
		return
	}
	dev.Send(pkt)
}

func (n *Node) lookupRoute(dst netip.Addr) *NetDevice {
	if dev, ok := n.routes[dst]; ok {
		return dev
	}
	return n.defDev
}

// handleReceive is the node's IP input path. It owns pkt: the packet is
// either handed on to an egress device (forwarding) or freed here after
// its terminal delivery or drop.
//
//simlint:hotpath
func (n *Node) handleReceive(in *NetDevice, pkt *Packet) {
	dst := pkt.Dst.Addr()
	switch {
	case dst.IsMulticast():
		member := slices.Contains(n.multicast, dst)
		if member {
			n.deliverLocal(pkt)
		}
		if n.forward {
			n.floodMulticast(in, pkt)
		} else if !member {
			n.drop(DropNoRoute)
		}
		n.putPacket(pkt)
	case n.HasAddr(dst):
		n.deliverLocal(pkt)
		n.putPacket(pkt)
	case n.forward:
		dev := n.lookupRoute(dst)
		if dev == nil || dev == in {
			n.drop(DropNoRoute)
			n.putPacket(pkt)
			return
		}
		dev.Send(pkt)
	default:
		n.drop(DropNoRoute)
		n.putPacket(pkt)
	}
}

// floodMulticast forwards a multicast packet out every port except the
// ingress one. The paper's simulated network likewise relays the
// attacker's DHCPv6 RELAY-FORW messages to every Dev. Each egress gets
// its own clone (payload deep-copied, struct pooled); the caller still
// owns the original.
func (n *Node) floodMulticast(in *NetDevice, pkt *Packet) {
	for _, d := range n.devs {
		if d == in {
			continue
		}
		d.Send(n.clonePacket(pkt))
	}
}

// deliverLocal runs the packet through the ingress filter, taps, and
// transport demux. It never frees pkt — the caller retains ownership —
// and every callee must treat the packet as borrowed for the duration
// of the call (Payload may be retained; the *Packet and TCP header may
// not).
func (n *Node) deliverLocal(pkt *Packet) {
	pkt.sanCheck("Node.deliverLocal")
	if n.filter != nil && !n.filter(pkt) {
		n.drop(DropFiltered)
		return
	}
	for _, tap := range n.taps {
		tap(n.sched.Now(), pkt)
	}
	switch pkt.Proto {
	case ProtoUDP:
		sock := n.udpSocket(pkt.Dst.Port())
		if sock == nil {
			n.drop(DropNoListener)
			return
		}
		sock.deliver(pkt)
	case ProtoTCP:
		n.deliverTCP(pkt)
	default:
		n.drop(DropNoListener)
	}
}

// String implements fmt.Stringer.
func (n *Node) String() string { return n.name }

// countTx tallies one transmitted frame.
func (n *Node) countTx(frameLen int, proto Protocol) {
	st := &n.net.stats
	st.TxFrames++
	st.TxBytes += uint64(frameLen)
	switch proto {
	case ProtoUDP:
		st.TxBytesUDP += uint64(frameLen)
	case ProtoTCP:
		st.TxBytesTCP += uint64(frameLen)
	}
}

// drop files one frame dropped at this node in the network's ledger.
// A drop-tail or loss drop is also a "queue-drop" trace event naming
// the node, when a tracer is attached.
func (n *Node) drop(reason DropReason) {
	n.net.stats.Dropped[reason]++
	if tr := n.net.trace; tr != nil && (reason == DropTail || reason == DropLoss) {
		// Guarded even though Tracer is nil-safe, so an untraced flood
		// run skips building the annotations.
		//simlint:allow allocfree(the variadic KV array stays on this stack: Tracer.Event stores the annotations' string ids and keeps no reference, pinned by TestQueueDropEventAllocFree)
		tr.Event(n.sched.Now(), obs.CatNet, "queue-drop",
			obs.KV{K: "node", V: n.name}, obs.KV{K: "reason", V: reason.String()})
	}
}

// addQueued adjusts the buffered-frame count and tracks the
// network-wide peak.
func (n *Node) addQueued(delta int) {
	st := &n.net.stats
	st.QueuedNow += delta
	if st.QueuedNow > st.PeakQueued {
		st.PeakQueued = st.QueuedNow
	}
}
