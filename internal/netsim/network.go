package netsim

import (
	"fmt"
	"net/netip"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// NetworkStats aggregates network-wide counters that feed the Table I
// resource model: total frames transmitted, total bytes on the wire
// (and the UDP and TCP shares of them), queue drops, and the peak
// number of frames buffered anywhere in the network at one instant.
type NetworkStats struct {
	TxFrames    uint64
	TxBytes     uint64
	TxBytesUDP  uint64
	TxBytesTCP  uint64
	Drops       uint64
	QueuedNow   int
	PeakQueued  int
	NodesBuilt  int
	PacketUIDs  uint64
	MaxFrameLen int
}

// Network owns a set of nodes and a shared scheduler, allocates
// addresses, and tracks aggregate statistics. Its topology helpers
// build the star network of §III-D: every DDoSim component hangs off a
// central router via a point-to-point Ethernet-like link.
type Network struct {
	sched  *sim.Scheduler
	nodes  []*Node
	byName map[string]*Node

	next4 uint32 // low 24 bits of next 10.x.y.z host address
	next6 uint64 // interface id of next fd00::/64 host address

	stats NetworkStats

	// Packet free list (see pool.go).
	pp pktPool

	// Flow accounting (optional; see EnableFlows).
	flows *FlowTable

	// Queue-drop tracing (optional; see Observe).
	trace *obs.Tracer
}

// New creates an empty network driven by sched.
func New(sched *sim.Scheduler) *Network {
	return &Network{
		sched:  sched,
		byName: make(map[string]*Node),
		next4:  1,
		next6:  1,
	}
}

// Sched exposes the network's scheduler.
func (w *Network) Sched() *sim.Scheduler { return w.sched }

// Observe attaches the observability bundle's tracer: queue drops
// become trace events. The wire-level counters (frames, bytes per
// protocol, drops, queue depth) stay in Stats, off the registry, so
// the per-frame path touches no atomics; whoever owns the run
// publishes them to the registry when it ends. Safe to call with nil
// to detach.
func (w *Network) Observe(o *obs.Obs) {
	w.trace = o.Tracer()
}

// Stats returns a copy of the aggregate counters.
func (w *Network) Stats() NetworkStats { return w.stats }

// Nodes returns the nodes in creation order. The returned slice is a
// copy.
func (w *Network) Nodes() []*Node {
	out := make([]*Node, len(w.nodes))
	copy(out, w.nodes)
	return out
}

// Node returns the node with the given name, or nil.
func (w *Network) Node(name string) *Node { return w.byName[name] }

// NewNode creates a bare node with no devices or addresses.
func (w *Network) NewNode(name string) *Node {
	if _, dup := w.byName[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node name %q", name))
	}
	n := &Node{
		name:   name,
		id:     uint32(len(w.nodes) + 1),
		net:    w,
		sched:  w.sched,
		routes: make(map[netip.Addr]*NetDevice),
	}
	n.tcp = newTCPHost(n)
	w.nodes = append(w.nodes, n)
	w.byName[name] = n
	w.stats.NodesBuilt++
	return n
}

// AllocAddrs returns a fresh (IPv4, IPv6) address pair from the
// network's 10.0.0.0/8 and fd00::/64 pools.
func (w *Network) AllocAddrs() (netip.Addr, netip.Addr) {
	v4 := netip.AddrFrom4([4]byte{10, byte(w.next4 >> 16), byte(w.next4 >> 8), byte(w.next4)})
	w.next4++
	var b [16]byte
	b[0] = 0xfd
	for i := 0; i < 8; i++ {
		b[15-i] = byte(w.next6 >> (8 * i))
	}
	v6 := netip.AddrFrom16(b)
	w.next6++
	return v4, v6
}

// Star is a router-centric topology: hosts attach to Router with
// per-host links, and the router carries host routes for every leaf.
type Star struct {
	Net    *Network
	Router *Node
}

// NewStar builds the empty star with its central router.
func NewStar(w *Network) *Star {
	r := w.NewNode("router")
	r.SetForwarding(true)
	return &Star{Net: w, Router: r}
}

// AttachHost creates a named host, links it to the router at the given
// rate/delay/queue depth, assigns it one IPv4 and one IPv6 address, and
// installs routes both ways. It returns the host node.
func (s *Star) AttachHost(name string, rate DataRate, delay sim.Time, queueLimit int) *Node {
	h := s.Net.NewNode(name)
	hostDev, routerDev := Connect(h, s.Router, rate, delay, queueLimit)
	h.SetDefaultDevice(hostDev)
	v4, v6 := s.Net.AllocAddrs()
	h.AddAddr(v4)
	h.AddAddr(v6)
	s.Router.AddRoute(v4, routerDev)
	s.Router.AddRoute(v6, routerDev)
	return h
}

// AttachHostAsym is AttachHost with distinct uplink (host→router) and
// downlink (router→host) rates. TServer uses this: a modest uplink but
// a downlink wide enough to observe the flood.
func (s *Star) AttachHostAsym(name string, up, down DataRate, delay sim.Time, queueLimit int) *Node {
	h := s.Net.NewNode(name)
	hostDev, routerDev := ConnectAsym(h, s.Router, up, down, delay, queueLimit)
	h.SetDefaultDevice(hostDev)
	v4, v6 := s.Net.AllocAddrs()
	h.AddAddr(v4)
	h.AddAddr(v6)
	s.Router.AddRoute(v4, routerDev)
	s.Router.AddRoute(v6, routerDev)
	return h
}

// RouterDeviceFor returns the router-side device of the link leading to
// host, or nil when the host is not directly attached.
func (s *Star) RouterDeviceFor(host *Node) *NetDevice {
	for _, d := range host.devs {
		if d.peer != nil && d.peer.node == s.Router {
			return d.peer
		}
	}
	return nil
}

// NextUID issues a unique packet id from the network-wide counter.
func (w *Network) NextUID() uint64 {
	w.stats.PacketUIDs++
	return w.stats.PacketUIDs
}
