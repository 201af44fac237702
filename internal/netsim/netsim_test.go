package netsim

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// srcTest labels the events this package's tests schedule.
var srcTest = sim.NewSource("test")

func newStar(t testing.TB, seed int64) (*sim.Scheduler, *Network, *Star) {
	t.Helper()
	sched := sim.NewScheduler(seed)
	w := New(sched)
	return sched, w, NewStar(w)
}

func TestDataRateTxTime(t *testing.T) {
	cases := []struct {
		rate  DataRate
		bytes int
		want  sim.Time
	}{
		{8 * BitPerSec, 1, sim.Second},
		{Kbps, 125, sim.Second},
		{Mbps, 125, sim.Millisecond},
		{100 * Mbps, 1250, 100 * sim.Microsecond},
	}
	for _, c := range cases {
		if got := c.rate.TxTime(c.bytes); got != c.want {
			t.Errorf("TxTime(%v, %d) = %v, want %v", c.rate, c.bytes, got, c.want)
		}
	}
}

func TestDataRateString(t *testing.T) {
	cases := map[DataRate]string{
		500:        "500bps",
		100 * Kbps: "100kbps",
		25 * Mbps:  "25Mbps",
		Gbps:       "1Gbps",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(r), got, want)
		}
	}
}

func TestPacketSizes(t *testing.T) {
	v4 := netip.MustParseAddrPort("10.0.0.1:9")
	v6 := netip.MustParseAddrPort("[fd00::1]:9")
	udp4 := &Packet{Proto: ProtoUDP, Dst: v4, Payload: make([]byte, 100)}
	if got := udp4.Size(); got != 14+20+8+100 {
		t.Errorf("udp4 size = %d", got)
	}
	udp6 := &Packet{Proto: ProtoUDP, Dst: v6, Payload: make([]byte, 100)}
	if got := udp6.Size(); got != 14+40+8+100 {
		t.Errorf("udp6 size = %d", got)
	}
	tcp4 := &Packet{Proto: ProtoTCP, Dst: v4, Pad: 50}
	if got := tcp4.Size(); got != 14+20+20+50 {
		t.Errorf("tcp4 size = %d", got)
	}
	if got := tcp4.PayloadSize(); got != 50 {
		t.Errorf("PayloadSize = %d", got)
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{
		Proto:   ProtoTCP,
		Payload: []byte{1, 2, 3},
		TCP:     &TCPHeader{Seq: 9},
	}
	c := p.Clone()
	c.Payload[0] = 99
	c.TCP.Seq = 100
	if p.Payload[0] != 1 || p.TCP.Seq != 9 {
		t.Fatal("Clone shares state with original")
	}
}

func TestUDPDelivery(t *testing.T) {
	sched, _, star := newStar(t, 1)
	a := star.AttachHost("a", 10*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 10*Mbps, sim.Millisecond, 0)

	var got []byte
	var gotSrc netip.AddrPort
	if _, err := b.BindUDP(7, func(src netip.AddrPort, payload []byte, pad int) {
		got = payload
		gotSrc = src
	}); err != nil {
		t.Fatal(err)
	}
	sock, err := a.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(netip.AddrPortFrom(b.Addr4(), 7), []byte("hello"))
	if err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("payload = %q", got)
	}
	if gotSrc.Addr() != a.Addr4() {
		t.Fatalf("src = %v, want %v", gotSrc.Addr(), a.Addr4())
	}
}

func TestUDPDeliveryIPv6(t *testing.T) {
	sched, _, star := newStar(t, 1)
	a := star.AttachHost("a", 10*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 10*Mbps, sim.Millisecond, 0)

	var got string
	if _, err := b.BindUDP(547, func(src netip.AddrPort, payload []byte, pad int) {
		got = string(payload)
		if !src.Addr().Is6() {
			t.Errorf("expected IPv6 source, got %v", src)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sock, err := a.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(netip.AddrPortFrom(b.Addr6(), 547), []byte("v6"))
	if err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != "v6" {
		t.Fatalf("payload = %q", got)
	}
}

func TestUDPPortConflict(t *testing.T) {
	_, _, star := newStar(t, 1)
	a := star.AttachHost("a", Mbps, sim.Millisecond, 0)
	if _, err := a.BindUDP(53, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BindUDP(53, nil); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}

func TestUDPCloseReleasesPort(t *testing.T) {
	_, _, star := newStar(t, 1)
	a := star.AttachHost("a", Mbps, sim.Millisecond, 0)
	s, err := a.BindUDP(53, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := a.BindUDP(53, nil); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestMulticastFloodsToJoinedHosts(t *testing.T) {
	sched, _, star := newStar(t, 1)
	src := star.AttachHost("src", 10*Mbps, sim.Millisecond, 0)
	group := netip.MustParseAddr("ff02::1:2")

	received := make(map[string]int)
	for _, name := range []string{"d1", "d2", "d3"} {
		h := star.AttachHost(name, 10*Mbps, sim.Millisecond, 0)
		name := name
		if name != "d3" {
			h.JoinMulticast(group)
		}
		if _, err := h.BindUDP(547, func(netip.AddrPort, []byte, int) {
			received[name]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	sock, err := src.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(netip.AddrPortFrom(group, 547), []byte("relay-forw"))
	if err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if received["d1"] != 1 || received["d2"] != 1 {
		t.Fatalf("joined hosts received %v", received)
	}
	if received["d3"] != 0 {
		t.Fatalf("non-member received multicast: %v", received)
	}
}

func TestMulticastNotEchoedToSender(t *testing.T) {
	sched, _, star := newStar(t, 1)
	src := star.AttachHost("src", 10*Mbps, sim.Millisecond, 0)
	group := netip.MustParseAddr("ff02::1:2")
	src.JoinMulticast(group)
	echo := 0
	if _, err := src.BindUDP(547, func(netip.AddrPort, []byte, int) { echo++ }); err != nil {
		t.Fatal(err)
	}
	sock, _ := src.BindUDP(0, nil)
	sock.SendTo(netip.AddrPortFrom(group, 547), []byte("x"))
	if err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if echo != 0 {
		t.Fatalf("sender received its own multicast %d times", echo)
	}
}

func TestJoinMulticastRejectsUnicast(t *testing.T) {
	_, _, star := newStar(t, 1)
	h := star.AttachHost("h", Mbps, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("JoinMulticast accepted a unicast address")
		}
	}()
	h.JoinMulticast(netip.MustParseAddr("10.0.0.1"))
}

func TestQueueDropTail(t *testing.T) {
	sched, w, star := newStar(t, 1)
	// Tiny queue, slow link: burst must overflow.
	a := star.AttachHost("a", 8*Kbps, sim.Millisecond, 4)
	b := star.AttachHost("b", 10*Mbps, sim.Millisecond, 0)
	got := 0
	if _, err := b.BindUDP(9, func(netip.AddrPort, []byte, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	dst := netip.AddrPortFrom(b.Addr4(), 9)
	for i := 0; i < 20; i++ {
		sock.SendPadded(dst, nil, 1000)
	}
	if err := sched.Run(time100s()); err != nil {
		t.Fatal(err)
	}
	// The limit of 4 counts the frame being serialized, so the burst
	// keeps its first 4 frames and drops the other 16.
	if got != 4 {
		t.Fatalf("delivered %d of 20, want 4", got)
	}
	wantDropped(t, w, [NumDropReasons]uint64{DropTail: 16})
	st := w.Stats()
	if st.Drops != 16 {
		t.Fatalf("NetworkStats.Drops = %d, want 16", st.Drops)
	}
	if st.QueuedNow != 0 {
		t.Fatalf("%d frames still queued", st.QueuedNow)
	}
}

func time100s() sim.Time { return 100 * sim.Second }

// wantDropped fails t unless w's drop ledger equals want, reason by
// reason.
func wantDropped(t *testing.T, w *Network, want [NumDropReasons]uint64) {
	t.Helper()
	if got := w.Stats().Dropped; got != want {
		t.Fatalf("drop ledger%s, want%s", ledgerString(got), ledgerString(want))
	}
}

func ledgerString(d [NumDropReasons]uint64) string {
	var b strings.Builder
	for r, n := range d {
		fmt.Fprintf(&b, " %s=%d", DropReason(r), n)
	}
	return b.String()
}

// TestDropLedger makes every drop site on a star drop a known number
// of frames, one step at a time, and asserts the whole ledger and the
// frames transmitted after each step: a drop filed under the wrong
// reason, counted twice or not counted, or a frame sent further than
// it should go, fails the step that made it. Only drop-tail and loss
// drops are queue drops, in NetworkStats.Drops and in the trace.
func TestDropLedger(t *testing.T) {
	sched, w, star := newStar(t, 1)
	o := obs.New()
	w.Observe(o)
	src := star.AttachHost("src", 10*Mbps, sim.Millisecond, 0)
	slow := star.AttachHost("slow", 8*Kbps, sim.Millisecond, 2)
	lossy := star.AttachHost("lossy", 10*Mbps, sim.Millisecond, 0)
	down := star.AttachHost("down", 10*Mbps, sim.Millisecond, 0)
	deaf := star.AttachHost("deaf", 10*Mbps, sim.Millisecond, 0)
	walled := star.AttachHost("walled", 10*Mbps, sim.Millisecond, 0)
	lone := w.NewNode("lone") // no device: no route anywhere
	v4, _ := w.AllocAddrs()
	lone.AddAddr(v4)

	sock := func(n *Node, port uint16) *UDPSocket {
		s, err := n.BindUDP(port, func(netip.AddrPort, []byte, int) {})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	srcSock, slowSock, downSock := sock(src, 9), sock(slow, 9), sock(down, 9)
	sock(lossy, 9)
	sock(walled, 9)
	walled.SetFilter(func(*Packet) bool { return false })
	to := func(n *Node, port uint16) netip.AddrPort { return netip.AddrPortFrom(n.Addr4(), port) }
	// No host holds these addresses. The router has no route for
	// unknown, routes back down src's link, and routes stray down
	// deaf's.
	unknown := netip.MustParseAddrPort("10.99.99.99:9")
	back := netip.MustParseAddrPort("10.99.99.98:9")
	stray := netip.MustParseAddrPort("10.99.99.97:9")
	star.Router.AddRoute(back.Addr(), star.RouterDeviceFor(src))
	star.Router.AddRoute(stray.Addr(), star.RouterDeviceFor(deaf))
	// slow is the one member of group.
	group := netip.AddrPortFrom(netip.MustParseAddr("ff02::1:2"), 9)
	slow.JoinMulticast(group.Addr())
	raw := func(from *Node, dst netip.AddrPort, proto Protocol) {
		pkt := w.AllocPacket()
		pkt.Proto = proto
		pkt.Src, pkt.Dst = netip.AddrPortFrom(from.Addr4(), 9), dst
		from.SendPacket(pkt)
	}

	var want [NumDropReasons]uint64
	steps := []struct {
		what   string
		reason DropReason
		n      uint64
		tx     uint64 // frames the step puts on a wire
		send   func()
	}{
		{"1 multicast frame flooded to 4 hosts not in the group", DropNoRoute, 4, 6, func() {
			srcSock.SendTo(group, []byte("x"))
		}},
		{"burst of 5 into a limit-2 queue", DropTail, 3, 4, func() {
			for i := 0; i < 5; i++ {
				slowSock.SendPadded(to(src, 9), nil, 1000)
			}
		}},
		{"2 frames to a device at loss 1", DropLoss, 2, 4, func() {
			lossy.DefaultDevice().SetLossRate(1)
			srcSock.SendTo(to(lossy, 9), []byte("x"))
			srcSock.SendTo(to(lossy, 9), []byte("x"))
		}},
		{"2 frames arriving at a down device", DropDown, 2, 4, func() {
			down.DefaultDevice().SetUp(false)
			srcSock.SendTo(to(down, 9), []byte("x"))
			srcSock.SendTo(to(down, 9), []byte("x"))
		}},
		{"1 frame sent on a down device", DropDown, 1, 0, func() {
			downSock.SendTo(to(src, 9), []byte("x"))
		}},
		{"2 queued frames flushed by SetUp(false)", DropDown, 2, 0, func() {
			slowSock.SendPadded(to(src, 9), nil, 1000)
			slowSock.SendPadded(to(src, 9), nil, 1000)
			slow.DefaultDevice().SetUp(false)
		}},
		{"1 frame from a node with no device", DropNoRoute, 1, 0, func() {
			raw(lone, unknown, ProtoUDP)
		}},
		{"1 frame to an address the router has no route for", DropNoRoute, 1, 1, func() {
			raw(deaf, unknown, ProtoUDP)
		}},
		{"1 frame the router would send back out its ingress", DropNoRoute, 1, 1, func() {
			srcSock.SendTo(back, []byte("x"))
		}},
		{"1 frame reaching a host it is not addressed to", DropNoRoute, 1, 2, func() {
			srcSock.SendTo(stray, []byte("x"))
		}},
		{"2 datagrams to an unbound port", DropNoListener, 2, 4, func() {
			srcSock.SendTo(to(deaf, 9), []byte("x"))
			srcSock.SendTo(to(deaf, 10), []byte("x"))
		}},
		{"1 TCP frame with no TCP header", DropNoListener, 1, 2, func() {
			raw(src, to(deaf, 80), ProtoTCP)
		}},
		{"1 frame of an unknown protocol", DropNoListener, 1, 2, func() {
			raw(src, to(deaf, 80), 0)
		}},
		{"4 frames the ingress filter rejects", DropFiltered, 4, 8, func() {
			for i := 0; i < 4; i++ {
				srcSock.SendTo(to(walled, 9), []byte("x"))
			}
		}},
	}
	for _, st := range steps {
		tx := w.Stats().TxFrames
		st.send()
		if err := sched.Run(sched.Now() + 10*sim.Second); err != nil {
			t.Fatal(err)
		}
		want[st.reason] += st.n
		tx = w.Stats().TxFrames - tx
		t.Run(st.what, func(t *testing.T) {
			wantDropped(t, w, want)
			if tx != st.tx {
				t.Fatalf("%d frames transmitted, want %d", tx, st.tx)
			}
		})
	}
	if st := w.Stats(); st.Drops != want[DropTail]+want[DropLoss] || st.QueuedNow != 0 {
		t.Fatalf("Drops = %d, QueuedNow = %d; want %d, 0", st.Drops, st.QueuedNow, want[DropTail]+want[DropLoss])
	}
	var reasons []string
	for _, ev := range o.Trace.Events() {
		if ev.Name == "queue-drop" {
			reasons = append(reasons, ev.Args[1].V)
		}
	}
	if got := strings.Join(reasons, ","); got != "drop-tail,drop-tail,drop-tail,loss,loss" {
		t.Fatalf("queue-drop events carry reasons %q", got)
	}
}

func TestSerializationDelayOrdering(t *testing.T) {
	sched, _, star := newStar(t, 1)
	// 1000-byte payload at 1 Mbps: 1042 bytes on wire = ~8.3 ms per hop
	// plus two 1 ms propagation delays.
	a := star.AttachHost("a", Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", Mbps, sim.Millisecond, 0)
	var arrival sim.Time
	if _, err := b.BindUDP(9, func(netip.AddrPort, []byte, int) {
		arrival = sched.Now()
	}); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	sock.SendPadded(netip.AddrPortFrom(b.Addr4(), 9), nil, 1000)
	if err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	wire := (&Packet{Proto: ProtoUDP, Dst: netip.AddrPortFrom(b.Addr4(), 9), Pad: 1000}).Size()
	want := Mbps.TxTime(wire)*2 + 2*sim.Millisecond
	if arrival != want {
		t.Fatalf("arrival = %v, want %v", arrival, want)
	}
}

func TestDeviceDownDropsTraffic(t *testing.T) {
	sched, w, star := newStar(t, 1)
	a := star.AttachHost("a", 10*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 10*Mbps, sim.Millisecond, 0)
	got := 0
	if _, err := b.BindUDP(9, func(netip.AddrPort, []byte, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	b.DefaultDevice().SetUp(false)
	sock, _ := a.BindUDP(0, nil)
	sock.SendTo(netip.AddrPortFrom(b.Addr4(), 9), []byte("x"))
	if err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("down device delivered traffic")
	}
	wantDropped(t, w, [NumDropReasons]uint64{DropDown: 1})
	b.DefaultDevice().SetUp(true)
	sock.SendTo(netip.AddrPortFrom(b.Addr4(), 9), []byte("x"))
	if err := sched.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("recovered device delivered %d, want 1", got)
	}
}

func TestDeviceDownFlushesQueue(t *testing.T) {
	sched, w, star := newStar(t, 1)
	a := star.AttachHost("a", Kbps, sim.Millisecond, 10)
	b := star.AttachHost("b", 10*Mbps, sim.Millisecond, 0)
	got := 0
	if _, err := b.BindUDP(9, func(netip.AddrPort, []byte, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	for i := 0; i < 5; i++ {
		sock.SendPadded(netip.AddrPortFrom(b.Addr4(), 9), nil, 500)
	}
	dev := a.DefaultDevice()
	sched.Schedule(sim.Millisecond, srcTest, func() { dev.SetUp(false) })
	if err := sched.Run(time100s()); err != nil {
		t.Fatal(err)
	}
	// At 1 kbps the first 542-byte frame needs 4.3 s to serialize, so
	// the flush at 1 ms takes it and the four queued behind it.
	if got != 0 {
		t.Fatalf("flushed queue still delivered %d packets", got)
	}
	wantDropped(t, w, [NumDropReasons]uint64{DropDown: 5})
	if n := w.Stats().QueuedNow; n != 0 {
		t.Fatalf("queue not flushed: %d packets remain", n)
	}
}

func TestNetworkStatsAccounting(t *testing.T) {
	sched, w, star := newStar(t, 1)
	a := star.AttachHost("a", 10*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 10*Mbps, sim.Millisecond, 0)
	if _, err := b.BindUDP(9, nil); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	sock.SendTo(netip.AddrPortFrom(b.Addr4(), 9), []byte("abc"))
	if err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.TxFrames != 2 { // host->router, router->host
		t.Fatalf("TxFrames = %d, want 2", st.TxFrames)
	}
	if st.QueuedNow != 0 {
		t.Fatalf("QueuedNow = %d after drain", st.QueuedNow)
	}
	if st.PeakQueued < 1 {
		t.Fatalf("PeakQueued = %d", st.PeakQueued)
	}
	if st.NodesBuilt != 3 {
		t.Fatalf("NodesBuilt = %d", st.NodesBuilt)
	}
}

func TestAllocAddrsUnique(t *testing.T) {
	w := New(sim.NewScheduler(1))
	seen4 := make(map[netip.Addr]bool)
	seen6 := make(map[netip.Addr]bool)
	for i := 0; i < 1000; i++ {
		v4, v6 := w.AllocAddrs()
		if seen4[v4] || seen6[v6] {
			t.Fatalf("duplicate address at iteration %d: %v %v", i, v4, v6)
		}
		if !v4.Is4() || !v6.Is6() {
			t.Fatalf("bad families: %v %v", v4, v6)
		}
		seen4[v4], seen6[v6] = true, true
	}
}

func TestPropertyAllocAddrsAlwaysValid(t *testing.T) {
	f := func(n uint16) bool {
		w := New(sim.NewScheduler(1))
		count := int(n%200) + 1
		for i := 0; i < count; i++ {
			v4, v6 := w.AllocAddrs()
			if !v4.IsValid() || !v6.IsValid() || v4.IsMulticast() || v6.IsMulticast() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateNodeNamePanics(t *testing.T) {
	w := New(sim.NewScheduler(1))
	w.NewNode("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node name accepted")
		}
	}()
	w.NewNode("x")
}

func TestSinkRecordsPerSecond(t *testing.T) {
	sched, _, star := newStar(t, 1)
	a := star.AttachHost("a", 10*Mbps, sim.Millisecond, 0)
	ts := star.AttachHost("tserver", 10*Mbps, sim.Millisecond, 0)
	sink, err := InstallSink(ts, 80)
	if err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	dst := netip.AddrPortFrom(ts.Addr4(), 80)
	// One 500-byte datagram in second 0, two in second 2.
	sock.SendPadded(dst, nil, 500)
	sched.Schedule(2*sim.Second+100*sim.Millisecond, srcTest, func() {
		sock.SendPadded(dst, nil, 500)
		sock.SendPadded(dst, nil, 500)
	})
	if err := sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if sink.RxPackets() != 3 {
		t.Fatalf("RxPackets = %d", sink.RxPackets())
	}
	// The sink counts on-wire frame sizes (Eq. 2, "total size of the
	// packets"): 500-byte payload + 42 bytes of Ether/IPv4/UDP.
	const wire = 500 + 42
	if got := sink.BytesAt(0); got != wire {
		t.Fatalf("second 0 bytes = %d, want %d", got, wire)
	}
	if got := sink.BytesAt(2); got != 2*wire {
		t.Fatalf("second 2 bytes = %d, want %d", got, 2*wire)
	}
	if sink.DistinctSources() != 1 {
		t.Fatalf("DistinctSources = %d", sink.DistinctSources())
	}
	if got := sink.BytesFrom(a.Addr4()); got != 3*wire {
		t.Fatalf("BytesFrom = %d", got)
	}
	if got := sink.BytesByProto(ProtoUDP); got != 3*wire {
		t.Fatalf("BytesByProto(udp) = %d", got)
	}
}

func TestSinkAvgReceivedMatchesEq2(t *testing.T) {
	sched, _, star := newStar(t, 1)
	a := star.AttachHost("a", 10*Mbps, sim.Millisecond, 0)
	ts := star.AttachHost("tserver", 10*Mbps, sim.Millisecond, 0)
	sink, err := InstallSink(ts, 80)
	if err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	dst := netip.AddrPortFrom(ts.Addr4(), 80)
	// 1250 bytes per second for 10 seconds = 10 kbps.
	for s := 0; s < 10; s++ {
		at := sim.Time(s)*sim.Second + sim.Millisecond
		sched.ScheduleAt(at, srcTest, func() { sock.SendPadded(dst, nil, 1250) })
	}
	if err := sched.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// 1250 payload bytes plus 42 of headers: 10.336 kbps on the wire.
	const wire = 1250 + 42
	got := sink.AvgReceivedKbps(0, 10)
	if want := float64(10*wire) * 8 / 1000 / 10; got != want {
		t.Fatalf("D_received = %v kbps, want %v", got, want)
	}
}
