package netsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"ddosim/internal/sim"
)

func TestAccessors(t *testing.T) {
	sched, w, star := newStar(t, 1)
	a := star.AttachHost("a", 2*Mbps, sim.Millisecond, 0)

	if w.Sched() != sched {
		t.Fatal("Network.Sched")
	}
	if got := w.Node("a"); got != a {
		t.Fatal("Network.Node lookup")
	}
	if got := w.Node("missing"); got != nil {
		t.Fatal("missing node lookup returned non-nil")
	}
	nodes := w.Nodes()
	if len(nodes) != 2 || nodes[0].Name() != "router" {
		t.Fatalf("Nodes = %v", nodes)
	}
	if a.Network() != w {
		t.Fatal("Node.Network")
	}
	if a.String() != "a" {
		t.Fatalf("Node.String = %q", a.String())
	}

	dev := a.DefaultDevice()
	if dev.Node() != a || dev.Peer().Node().Name() != "router" {
		t.Fatal("device topology accessors")
	}
	if !dev.IsUp() {
		t.Fatal("fresh device down")
	}
	if dev.Rate() != 2*Mbps {
		t.Fatalf("Rate = %v", dev.Rate())
	}
	dev.SetRate(5 * Mbps)
	if dev.Rate() != 5*Mbps {
		t.Fatal("SetRate")
	}
	if !strings.Contains(dev.String(), "a") {
		t.Fatalf("Device.String = %q", dev.String())
	}
	if (&NetDevice{}).String() != "dev@?" {
		t.Fatal("orphan device String")
	}

	if !a.HasAddr(a.Addr4()) || a.HasAddr(netip.MustParseAddr("9.9.9.9")) {
		t.Fatal("HasAddr")
	}
	if got := len(a.Addrs()); got != 2 { // one v4 + one v6
		t.Fatalf("Addrs = %d", got)
	}
	if (100 * Kbps).BytesPerSecond() != 12500 {
		t.Fatal("BytesPerSecond")
	}
	if ProtoUDP.String() != "udp" || ProtoTCP.String() != "tcp" || Protocol(9).String() == "" {
		t.Fatal("Protocol.String")
	}
	pkt := &Packet{Proto: ProtoUDP, Src: netip.MustParseAddrPort("10.0.0.1:1"), Dst: netip.MustParseAddrPort("10.0.0.2:2")}
	if pkt.String() == "" {
		t.Fatal("Packet.String")
	}
}

// TestAddrCacheTracksMinimum: Addr4 and Addr6 report each family's
// lowest address whatever order the addresses were added in, and a
// family the node lacks reads as the invalid Addr.
func TestAddrCacheTracksMinimum(t *testing.T) {
	w := New(sim.NewScheduler(1))
	v4only := w.NewNode("v4only")
	v4only.AddAddr(netip.MustParseAddr("10.0.0.9"))
	if v4only.Addr4() != netip.MustParseAddr("10.0.0.9") || v4only.Addr6().IsValid() {
		t.Fatalf("v4-only node: Addr4 = %v, Addr6 = %v", v4only.Addr4(), v4only.Addr6())
	}

	addrs := []netip.Addr{
		netip.MustParseAddr("10.0.3.1"), netip.MustParseAddr("10.0.0.7"),
		netip.MustParseAddr("192.168.1.1"), netip.MustParseAddr("10.0.0.200"),
		netip.MustParseAddr("fd00::9"), netip.MustParseAddr("fd00::1:2"),
		netip.MustParseAddr("fc00::5"), netip.MustParseAddr("fe80::1"),
		netip.MustParseAddr("::ffff:10.0.0.1"), // v4-mapped counts as v6
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := w.NewNode(fmt.Sprintf("n%d", trial))
		for _, i := range rng.Perm(len(addrs)) {
			n.AddAddr(addrs[i])
			n.AddAddr(addrs[i]) // re-adding changes nothing
		}
		var min4, min6 netip.Addr
		for _, a := range n.Addrs() { // sorted ascending
			if a.Is6() && !min6.IsValid() {
				min6 = a
			} else if !a.Is6() && !min4.IsValid() {
				min4 = a
			}
		}
		if n.Addr4() != min4 || n.Addr6() != min6 {
			t.Fatalf("trial %d: Addr4 = %v, Addr6 = %v, want %v, %v", trial, n.Addr4(), n.Addr6(), min4, min6)
		}
	}
}

func TestConnectAsymDirectionalRates(t *testing.T) {
	sched := sim.NewScheduler(1)
	w := New(sched)
	a := w.NewNode("a")
	b := w.NewNode("b")
	da, db := ConnectAsym(a, b, 10*Mbps, 100*Kbps, sim.Millisecond, 0)
	a.SetDefaultDevice(da)
	b.SetDefaultDevice(db)
	v4a, v6a := w.AllocAddrs()
	a.AddAddr(v4a)
	a.AddAddr(v6a)
	v4b, v6b := w.AllocAddrs()
	b.AddAddr(v4b)
	b.AddAddr(v6b)

	var fwdArrive, revArrive sim.Time
	if _, err := b.BindUDP(9, func(netip.AddrPort, []byte, int) { fwdArrive = sched.Now() }); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BindUDP(9, func(netip.AddrPort, []byte, int) { revArrive = sched.Now() }); err != nil {
		t.Fatal(err)
	}
	sa, _ := a.BindUDP(0, nil)
	sb, _ := b.BindUDP(0, nil)
	sa.SendPadded(netip.AddrPortFrom(v4b, 9), nil, 1000)
	sb.SendPadded(netip.AddrPortFrom(v4a, 9), nil, 1000)
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if fwdArrive == 0 || revArrive == 0 {
		t.Fatal("packets lost")
	}
	// 1042-byte frame: ~0.8 ms at 10 Mbps vs ~83 ms at 100 kbps
	// (plus 1 ms propagation each way).
	if revArrive < 20*fwdArrive {
		t.Fatalf("asymmetric rates not honored: fwd=%v rev=%v", fwdArrive, revArrive)
	}
}

func TestAttachHostAsymAndRouterDeviceFor(t *testing.T) {
	sched, _, star := newStar(t, 1)
	h := star.AttachHostAsym("h", 1*Mbps, 50*Mbps, sim.Millisecond, 0)
	rd := star.RouterDeviceFor(h)
	if rd == nil || rd.Node() != star.Router {
		t.Fatal("RouterDeviceFor")
	}
	if rd.Rate() != 50*Mbps {
		t.Fatalf("downlink rate = %v", rd.Rate())
	}
	if h.DefaultDevice().Rate() != 1*Mbps {
		t.Fatalf("uplink rate = %v", h.DefaultDevice().Rate())
	}
	other := star.Net.NewNode("offstar")
	if star.RouterDeviceFor(other) != nil {
		t.Fatal("RouterDeviceFor found a device for an unattached node")
	}
	_ = sched
}

func TestLoopbackDelivery(t *testing.T) {
	sched, _, star := newStar(t, 1)
	a := star.AttachHost("a", Mbps, sim.Millisecond, 0)
	got := 0
	if _, err := a.BindUDP(9, func(netip.AddrPort, []byte, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	sock.SendTo(netip.AddrPortFrom(a.Addr4(), 9), []byte("self"))
	if err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("loopback delivered %d", got)
	}
}

func TestNoRouteAndNoListenerDrops(t *testing.T) {
	sched := sim.NewScheduler(1)
	w := New(sched)
	lone := w.NewNode("lonely") // no devices at all
	v4, v6 := w.AllocAddrs()
	lone.AddAddr(v4)
	lone.AddAddr(v6)
	sock, err := lone.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(netip.MustParseAddrPort("10.99.99.99:9"), []byte("x"))
	if err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	wantDropped(t, w, [NumDropReasons]uint64{DropNoRoute: 1})
	// Loopback to an unbound port finds no listener.
	sock.SendTo(netip.AddrPortFrom(v4, 1234), []byte("x"))
	if err := sched.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	wantDropped(t, w, [NumDropReasons]uint64{DropNoRoute: 1, DropNoListener: 1})
}

func TestLeaveMulticastStopsDelivery(t *testing.T) {
	sched, _, star := newStar(t, 1)
	src := star.AttachHost("src", 10*Mbps, sim.Millisecond, 0)
	dev := star.AttachHost("dev", 10*Mbps, sim.Millisecond, 0)
	group := netip.MustParseAddr("ff02::1:2")
	dev.JoinMulticast(group)
	got := 0
	if _, err := dev.BindUDP(547, func(netip.AddrPort, []byte, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, _ := src.BindUDP(0, nil)
	dst := netip.AddrPortFrom(group, 547)
	sock.SendTo(dst, []byte("a"))
	if err := sched.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	dev.LeaveMulticast(group)
	sock.SendTo(dst, []byte("b"))
	if err := sched.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("delivered %d, want 1 (left the group)", got)
	}
}

func TestTxTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate accepted")
		}
	}()
	DataRate(0).TxTime(100)
}
