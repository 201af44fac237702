package netsim

import (
	"net/netip"
	"testing"
	"testing/quick"

	"ddosim/internal/sim"
)

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
	if drops := a.DefaultDevice().Stats().QueueDrops; drops != 16 {
		t.Fatalf("QueueDrops = %d, want 16", drops)
	}
	st := w.Stats()
	if st.Drops != 16 {
		t.Fatalf("NetworkStats.Drops = %d, want 16", st.Drops)
	}
	if st.QueuedNow != 0 {
		t.Fatalf("%d frames still queued", st.QueuedNow)
	}
}

func time100s() sim.Time { return 100 * sim.Second }

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
	sched, _, star := newStar(t, 1)
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
	sched, _, star := newStar(t, 1)
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
	sched.Schedule(sim.Millisecond, func() { dev.SetUp(false) })
	if err := sched.Run(time100s()); err != nil {
		t.Fatal(err)
	}
	// At 1 kbps the first 542-byte frame needs 4.3 s to serialize, so
	// the flush at 1 ms takes it and the four queued behind it.
	if got != 0 {
		t.Fatalf("flushed queue still delivered %d packets", got)
	}
	st := dev.Stats()
	if st.DownDrops != 5 {
		t.Fatalf("DownDrops = %d, want all 5 flushed frames", st.DownDrops)
	}
	if st.CurrentLoad != 0 {
		t.Fatalf("queue not flushed: %d packets remain", st.CurrentLoad)
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
	sched.Schedule(2*sim.Second+100*sim.Millisecond, func() {
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
	if got := sink.Series().BytesAt(0); got != wire {
		t.Fatalf("second 0 bytes = %d, want %d", got, wire)
	}
	if got := sink.Series().BytesAt(2); got != 2*wire {
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
		sched.ScheduleAt(at, func() { sock.SendPadded(dst, nil, 1250) })
	}
	if err := sched.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	got := sink.Series().AvgReceivedKbps(0, 10)
	if got < 10.0 || got > 10.5 { // +headers? payload-only: exactly 10
		t.Fatalf("D_received = %v kbps, want ~10", got)
	}
}
