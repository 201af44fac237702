package netsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// TestNodeTablesDropRemovedEntries guards the slice-backed node tables
// against stale references: a closed socket must not stay reachable
// from Node.udpPorts, not even from the backing array past len, where
// it would keep its handler closure — and the process that closure
// holds — alive for the rest of the run. Left multicast groups must
// leave no trace either.
func TestNodeTablesDropRemovedEntries(t *testing.T) {
	n := New(sim.NewScheduler(1)).NewNode("h")
	var socks []*UDPSocket
	for port := uint16(1001); port <= 1004; port++ {
		s, err := n.BindUDP(port, func(netip.AddrPort, []byte, int) {})
		if err != nil {
			t.Fatal(err)
		}
		socks = append(socks, s)
	}
	// Close from the middle, the front and the back.
	for _, i := range []int{1, 0, 3} {
		socks[i].Close()
		for j, s := range n.udpPorts[:cap(n.udpPorts)] {
			if s != nil && s.closed {
				t.Errorf("after closing port %d: closed socket (port %d) still at udpPorts slot %d (len %d)",
					socks[i].port, s.port, j, len(n.udpPorts))
			}
			if j >= len(n.udpPorts) && s != nil {
				t.Errorf("after closing port %d: udpPorts slot %d past len %d holds port %d",
					socks[i].port, j, len(n.udpPorts), s.port)
			}
		}
	}
	if len(n.udpPorts) != 1 || n.udpSocket(1003) != socks[2] {
		t.Fatalf("open sockets = %v, want only port 1003", n.udpPorts)
	}
	if n.udpSocket(1001) != nil {
		t.Error("closed port still resolves to a socket")
	}
	if _, err := n.BindUDP(1001, nil); err != nil {
		t.Errorf("rebinding a closed port: %v", err)
	}
	if _, err := n.BindUDP(1003, nil); err == nil {
		t.Error("binding an open port succeeded")
	}

	groups := []netip.Addr{
		netip.MustParseAddr("ff02::1:2"),
		netip.MustParseAddr("ff02::1:3"),
		netip.MustParseAddr("ff02::1:4"),
	}
	for _, g := range groups {
		n.JoinMulticast(g)
		n.JoinMulticast(g) // joining twice changes nothing
	}
	for _, i := range []int{1, 0} {
		n.LeaveMulticast(groups[i])
		n.LeaveMulticast(groups[i]) // leaving twice changes nothing
		for j, g := range n.multicast[len(n.multicast):cap(n.multicast)] {
			if g.IsValid() {
				t.Errorf("after leaving %s: multicast slot %d past len holds %s", groups[i], len(n.multicast)+j, g)
			}
		}
	}
	if !slices.Equal(n.multicast, groups[2:]) {
		t.Errorf("groups = %v, want %v", n.multicast, groups[2:])
	}
}

// hintStar is a star with flow accounting into a buffer, two senders
// a and b and a receiver; x and y are two of the receiver's endpoints.
func hintStar(t *testing.T, cfg FlowConfig) (sched *sim.Scheduler, w *Network, buf *obs.FlowBuffer, a, b *UDPSocket, x, y netip.AddrPort) {
	t.Helper()
	sched, w, star := newStar(t, 1)
	buf = &obs.FlowBuffer{}
	cfg.Sink = buf
	w.EnableFlows(cfg)
	for _, name := range []string{"a", "b"} {
		s, err := star.AttachHost(name, 100*Mbps, sim.Millisecond, 0).BindUDP(5000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if name == "a" {
			a = s
		} else {
			b = s
		}
	}
	dst := star.AttachHost("dst", 100*Mbps, sim.Millisecond, 0)
	return sched, w, buf, a, b, netip.AddrPortFrom(dst.Addr4(), 80), netip.AddrPortFrom(dst.Addr4(), 81)
}

// flowLog renders exported records as "src>dst reason packets" lines.
func flowLog(recs []obs.FlowRecord) []string {
	var out []string
	for _, r := range recs {
		out = append(out, fmt.Sprintf("%s>%s %s %d", r.Src, r.Dst, r.Reason, r.Packets))
	}
	return out
}

func runTo(t *testing.T, sched *sim.Scheduler, at sim.Time) {
	t.Helper()
	if err := sched.Run(at); err != nil {
		t.Fatal(err)
	}
}

func checkFlows(t *testing.T, buf *obs.FlowBuffer, want []string) {
	t.Helper()
	if got := flowLog(buf.Records()); !slices.Equal(got, want) {
		t.Errorf("flow records:\n got %q\nwant %q", got, want)
	}
}

// TestFlowHintSlotRecycledBySweep: a's hint points at a slot the sweep
// freed and b's new flow took. The key check must send a's packet to a
// flow of its own, not into b's.
func TestFlowHintSlotRecycledBySweep(t *testing.T) {
	sched, w, buf, a, b, x, y := hintStar(t, FlowConfig{IdleTimeout: sim.Second})
	a.SendPadded(x, nil, 64)
	runTo(t, sched, 5*sim.Second) // a>x goes idle; its slot returns to the free list
	b.SendPadded(y, nil, 64)      // b>y takes the slot a's hint points at
	if hint := a.node.flowHint; !w.flows.entries[hint].live || w.flows.entries[hint].key.Src.Addr() != b.node.Addr4() {
		t.Fatalf("setup: a's hint %d does not point at b's flow", hint)
	}
	a.SendPadded(x, nil, 64)
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())
	ax, by := a.node.Addr4().String()+":5000>"+x.String(), b.node.Addr4().String()+":5000>"+y.String()
	checkFlows(t, buf, []string{ax + " idle 1", by + " final 1", ax + " final 1"})
}

// TestFlowHintEvictedSlot: a's hint points at its own flow's slot after
// the MaxFlows cap evicted that flow. The slot still holds a's key but
// is dead, so a's next packet must open a new flow.
func TestFlowHintEvictedSlot(t *testing.T) {
	sched, w, buf, a, b, x, y := hintStar(t, FlowConfig{MaxFlows: 1, IdleTimeout: 100 * sim.Second, SweepPeriod: 50 * sim.Second})
	a.SendPadded(x, nil, 64)
	b.SendPadded(y, nil, 64) // evicts a>x
	a.SendPadded(x, nil, 64) // evicts b>y, reopens a>x
	a.SendPadded(x, nil, 64)
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())
	ax, by := a.node.Addr4().String()+":5000>"+x.String(), b.node.Addr4().String()+":5000>"+y.String()
	checkFlows(t, buf, []string{ax + " evict 1", by + " evict 1", ax + " final 2"})
}

// TestFlowHintReplacedTable: EnableFlows replaced the table a's hint
// was taken in, and in the new table that index holds b's flow.
func TestFlowHintReplacedTable(t *testing.T) {
	sched, w, buf, a, b, x, y := hintStar(t, FlowConfig{})
	a.SendPadded(x, nil, 64)
	buf2 := &obs.FlowBuffer{}
	w.EnableFlows(FlowConfig{Sink: buf2}) // flushes a>x into buf
	b.SendPadded(y, nil, 64)              // slot 0 of the new table
	a.SendPadded(x, nil, 64)
	a.SendPadded(x, nil, 64)
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())
	ax, by := a.node.Addr4().String()+":5000>"+x.String(), b.node.Addr4().String()+":5000>"+y.String()
	checkFlows(t, buf, []string{ax + " final 1"})
	checkFlows(t, buf2, []string{by + " final 1", ax + " final 2"})
}

// TestFlowHintCheckpoint: an active-timeout checkpoint taken on the
// hint's fast path exports the elapsed interval and restarts the
// record in place, in the same slot.
func TestFlowHintCheckpoint(t *testing.T) {
	sched, w, buf, a, _, x, _ := hintStar(t, FlowConfig{ActiveTimeout: 3 * sim.Second, IdleTimeout: 100 * sim.Second})
	a.SendPadded(x, nil, 64)
	hint := a.node.flowHint
	runTo(t, sched, sim.Second)
	a.SendPadded(x, nil, 64)
	runTo(t, sched, 3500*sim.Millisecond)
	a.SendPadded(x, nil, 64) // checkpoint
	runTo(t, sched, 4*sim.Second)
	a.SendPadded(x, nil, 64)
	if a.node.flowHint != hint {
		t.Errorf("hint moved from %d to %d across the checkpoint", hint, a.node.flowHint)
	}
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())
	ax := a.node.Addr4().String() + ":5000>" + x.String()
	checkFlows(t, buf, []string{ax + " active 2", ax + " final 2"})
	recs := buf.Records()
	if recs[0].StartUS != 0 || recs[0].EndUS != 1e6 || recs[1].StartUS != 3.5e6 || recs[1].EndUS != 4e6 {
		t.Errorf("intervals = [%d,%d] [%d,%d], want [0,1s] [3.5s,4s]",
			recs[0].StartUS, recs[0].EndUS, recs[1].StartUS, recs[1].EndUS)
	}
	if st := w.Flows().Stats(); st.Created != 2 {
		t.Errorf("created = %d, want 2 (open + restart)", st.Created)
	}
}

// TestSinkSourcesExact checks the sink's per-source tallies against a
// map model: a node sending over IPv4 and IPv6 is two sources, a
// packet whose Src is not its origin's address counts under that
// address, and packets that bypass SendPacket (no origin) count too.
func TestSinkSourcesExact(t *testing.T) {
	sched, _, star := newStar(t, 1)
	ts := star.AttachHost("tserver", Gbps, sim.Millisecond, 1<<16)
	sink, err := InstallSink(ts, 80)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for i := 0; i < 5; i++ {
		nodes = append(nodes, star.AttachHost(fmt.Sprintf("h%d", i), Gbps, sim.Millisecond, 1<<16))
	}
	forged := []netip.Addr{
		netip.MustParseAddr("192.0.2.7"),
		netip.MustParseAddr("2001:db8::7"),
		nodes[0].Addr4(), // another node's address
	}
	model := map[netip.Addr]uint64{}
	var total uint64
	rng := rand.New(rand.NewSource(3))
	send := func(n *Node, src netip.Addr, viaDevice bool) {
		dst := ts.Addr4()
		if src.Is6() {
			dst = ts.Addr6()
		}
		pkt := n.AllocPacket()
		pkt.Proto = ProtoUDP
		pkt.Src = netip.AddrPortFrom(src, 4000)
		pkt.Dst = netip.AddrPortFrom(dst, 80)
		pkt.Pad = rng.Intn(1000)
		model[src] += uint64(pkt.Size())
		total += uint64(pkt.Size())
		if viaDevice {
			n.DefaultDevice().Send(pkt)
		} else {
			n.SendPacket(pkt)
		}
	}
	// The pinned cases first: node 1 over both families, node 2 with a
	// forged source, node 3 straight onto its device.
	send(nodes[1], nodes[1].Addr4(), false)
	send(nodes[1], nodes[1].Addr6(), false)
	send(nodes[2], forged[0], false)
	send(nodes[3], nodes[3].Addr4(), true)
	for i := 0; i < 300; i++ {
		n := nodes[rng.Intn(len(nodes))]
		var src netip.Addr
		switch k := rng.Intn(6); {
		case k < 3:
			src = n.Addr4()
		case k < 5:
			src = n.Addr6()
		default:
			src = forged[rng.Intn(len(forged))]
		}
		send(n, src, rng.Intn(8) == 0)
	}
	runTo(t, sched, 10*sim.Second)

	if sink.Series().TotalBytes() != total {
		t.Fatalf("sink logged %d bytes of %d sent: a packet was lost", sink.Series().TotalBytes(), total)
	}
	if got := sink.DistinctSources(); got != len(model) {
		t.Errorf("DistinctSources = %d, want %d", got, len(model))
	}
	for a, want := range model {
		if got := sink.BytesFrom(a); got != want {
			t.Errorf("BytesFrom(%s) = %d, want %d", a, got, want)
		}
	}
	if got := sink.BytesFrom(netip.MustParseAddr("198.51.100.1")); got != 0 {
		t.Errorf("BytesFrom(unseen) = %d, want 0", got)
	}
	if got := sink.BytesByProto(ProtoUDP); got != total {
		t.Errorf("BytesByProto(udp) = %d, want %d", got, total)
	}
	if model[nodes[1].Addr4()] == 0 || model[nodes[1].Addr6()] == 0 || model[forged[0]] == 0 {
		t.Fatal("setup: pinned cases missing from the model")
	}
}
