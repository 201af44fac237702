package netsim

import (
	"encoding/json"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// flowStar builds a star with flow accounting into an obs.FlowBuffer,
// plus a src host with an unbound-port UDP socket and a dst host
// listening on port 80.
func flowStar(t testing.TB) (*sim.Scheduler, *Network, *obs.FlowBuffer, *UDPSocket, netip.AddrPort) {
	t.Helper()
	sched, w, star := newStar(t, 1)
	buf := &obs.FlowBuffer{}
	w.EnableFlows(buf)
	src := star.AttachHost("src", 100*Mbps, sim.Millisecond, 0)
	dst := star.AttachHost("dst", 100*Mbps, sim.Millisecond, 0)
	if _, err := dst.BindUDP(80, nil); err != nil {
		t.Fatal(err)
	}
	sock, err := src.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sched, w, buf, sock, netip.AddrPortFrom(dst.Addr4(), 80)
}

func TestFlowTableIdleExpiry(t *testing.T) {
	sched, w, buf, sock, target := flowStar(t)

	for i := 0; i < 5; i++ {
		sock.SendPadded(target, nil, 100)
		if err := sched.Run(sched.Now() + 100*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if w.Flows().Active() != 1 {
		t.Fatalf("active=%d, want 1", w.Flows().Active())
	}
	lastSend := sched.Now() - 100*sim.Millisecond

	// Run past the idle timeout; the sweeper closes the flow.
	if err := sched.Run(sched.Now() + flowIdleTimeout + 2*flowSweepPeriod); err != nil {
		t.Fatal(err)
	}
	w.Flows().Stop()
	if w.Flows().Active() != 0 {
		t.Fatalf("active=%d after idle, want 0", w.Flows().Active())
	}
	w.Flows().FlushAll(sched.Now())
	recs := buf.Records()
	if len(recs) != 1 {
		t.Fatalf("records=%d, want 1: %+v", len(recs), recs)
	}
	r := recs[0]
	if r.Reason != obs.FlowIdle {
		t.Fatalf("reason=%q, want idle", r.Reason)
	}
	if r.Packets != 5 {
		t.Fatalf("packets=%d, want 5", r.Packets)
	}
	wantBytes := 5 * uint64(etherHeaderBytes+ipv4HeaderBytes+udpHeaderBytes+100)
	if r.Bytes != wantBytes {
		t.Fatalf("bytes=%d, want %d", r.Bytes, wantBytes)
	}
	if r.EndUS != int64(lastSend/sim.Microsecond) {
		t.Fatalf("end_us=%d, want %d (last activity)", r.EndUS, int64(lastSend/sim.Microsecond))
	}
	if r.Label != "benign" {
		t.Fatalf("label=%q, want benign", r.Label)
	}
	if r.Proto != "udp" {
		t.Fatalf("proto=%q", r.Proto)
	}
}

func TestFlowTableActiveCheckpoint(t *testing.T) {
	sched, w, buf, sock, target := flowStar(t)

	// Send every 500ms for two and a half active timeouts: the gap is
	// far under the idle timeout, so only the active timeout can close
	// records.
	const gap = 500 * sim.Millisecond
	n := int(5 * flowActiveTimeout / 2 / gap)
	for i := 0; i < n; i++ {
		sock.SendPadded(target, nil, 100)
		if err := sched.Run(sched.Now() + gap); err != nil {
			t.Fatal(err)
		}
	}
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())

	recs := buf.Records()
	if len(recs) < 3 {
		t.Fatalf("records=%d, want >=3 (checkpoints + final)", len(recs))
	}
	var pkts uint64
	for i, r := range recs {
		pkts += r.Packets
		wantReason := obs.FlowActive
		if i == len(recs)-1 {
			wantReason = obs.FlowFinal
		}
		if r.Reason != wantReason {
			t.Fatalf("record %d reason=%q, want %q", i, r.Reason, wantReason)
		}
		if (r.EndUS-r.StartUS) > int64(flowActiveTimeout/sim.Microsecond) && r.Reason == obs.FlowActive {
			t.Fatalf("checkpoint %d spans %dus > active timeout", i, r.EndUS-r.StartUS)
		}
	}
	if pkts != uint64(n) {
		t.Fatalf("total packets across records=%d, want %d", pkts, n)
	}
}

func TestFlowTableLabelRules(t *testing.T) {
	sched, w, buf, sock, target := flowStar(t)
	attacker := netip.MustParseAddr("10.9.9.9")
	w.Flows().AddLabelRule(FlowLabelRule{Addr: target.Addr(), Port: 80, Label: "attack"})
	w.Flows().AddLabelRule(FlowLabelRule{Addr: attacker, Label: "cnc"})

	sock.SendPadded(target, nil, 64) // matches rule 1 (dst addr + port 80)
	if err := sched.Run(sched.Now() + 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())
	recs := buf.Records()
	if len(recs) != 1 || recs[0].Label != "attack" {
		t.Fatalf("records %+v, want one attack-labeled flow", recs)
	}
}

// sendToMany sends one datagram from sock to each of n consecutive
// addresses from base, all at the current instant, so none of the n
// flows can idle out before the caller looks at the table.
func sendToMany(sock *UDPSocket, base netip.Addr, n int) {
	addr := base
	for i := 0; i < n; i++ {
		sock.SendPadded(netip.AddrPortFrom(addr, 80), nil, 64)
		addr = addr.Next()
	}
}

func TestFlowTableEviction(t *testing.T) {
	sched, w, buf, sock, _ := flowStar(t)
	base := netip.MustParseAddr("10.0.7.1")
	sendToMany(sock, base, maxFlows+2)
	if err := sched.Run(sched.Now() + sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	ft := w.Flows()
	if ft.Active() != maxFlows {
		t.Fatalf("active=%d, want %d (capped)", ft.Active(), maxFlows)
	}
	st := ft.Stats()
	if st.Evicted != 2 {
		t.Fatalf("evicted=%d, want 2", st.Evicted)
	}
	ft.Stop()
	ft.FlushAll(sched.Now())
	recs := buf.Records()
	if len(recs) != maxFlows+2 {
		t.Fatalf("records=%d, want %d", len(recs), maxFlows+2)
	}
	// The two oldest flows were evicted, in creation order.
	if recs[0].Reason != obs.FlowEvict || recs[1].Reason != obs.FlowEvict || recs[2].Reason != obs.FlowFinal {
		t.Fatalf("oldest records %+v, want two evict reasons", recs[:3])
	}
	if recs[0].Dst.Addr() != base || recs[1].Dst.Addr() != base.Next() {
		t.Fatalf("evicted dsts=%v %v, want %v %v", recs[0].Dst.Addr(), recs[1].Dst.Addr(), base, base.Next())
	}
}

// TestFlowTableEvictedSlotsReused pins that eviction frees the slot it
// empties: three times the cap of flows opened at one instant leave the
// slab at the cap after a sweep, with each live flow listed once in
// creation order.
func TestFlowTableEvictedSlotsReused(t *testing.T) {
	sched, w, _, sock, _ := flowStar(t)
	sendToMany(sock, netip.MustParseAddr("10.1.0.1"), 3*maxFlows)
	if err := sched.Run(sched.Now() + flowSweepPeriod + sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	ft := w.Flows()
	if st := ft.Stats(); st.Evicted != 2*maxFlows {
		t.Fatalf("evicted=%d, want %d", st.Evicted, 2*maxFlows)
	}
	if len(ft.entries) != maxFlows || ft.Active() != maxFlows || len(ft.freeList) != 0 {
		t.Fatalf("%d entries, %d live and %d free after a sweep, want %d, %d and 0",
			len(ft.entries), ft.Active(), len(ft.freeList), maxFlows, maxFlows)
	}
	if n := len(ft.order) - ft.orderHead; n != maxFlows {
		t.Fatalf("creation order lists %d flows, want %d", n, maxFlows)
	}
}

// TestFlowTableSlotReuseAfterSweep pins the free-list discipline: a
// slot freed by expiry must be reusable without corrupting the
// creation-order list.
func TestFlowTableSlotReuseAfterSweep(t *testing.T) {
	sched, w, buf, sock, target := flowStar(t)
	idle := flowIdleTimeout + 2*flowSweepPeriod

	sock.SendPadded(target, nil, 64)
	if err := sched.Run(sched.Now() + idle); err != nil { // expires
		t.Fatal(err)
	}
	sock.SendPadded(target, nil, 64) // same key again: new flow, reused slot
	sock.SendPadded(netip.AddrPortFrom(target.Addr(), 81), nil, 64)
	if err := sched.Run(sched.Now() + idle); err != nil {
		t.Fatal(err)
	}
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())
	recs := buf.Records()
	if len(recs) != 3 {
		t.Fatalf("records=%d, want 3: %+v", len(recs), recs)
	}
	for i, r := range recs {
		if r.Packets != 1 {
			t.Fatalf("record %d packets=%d, want 1", i, r.Packets)
		}
		if r.Reason != obs.FlowIdle {
			t.Fatalf("record %d reason=%q, want idle", i, r.Reason)
		}
	}
}

func TestFlowTableTCPFlagsAccumulate(t *testing.T) {
	sched, w, star := newStar(t, 1)
	buf := &obs.FlowBuffer{}
	w.EnableFlows(buf)
	src := star.AttachHost("src", 100*Mbps, sim.Millisecond, 0)
	dst := star.AttachHost("dst", 100*Mbps, sim.Millisecond, 0)

	sp := netip.AddrPortFrom(src.Addr4(), 1234)
	dp := netip.AddrPortFrom(dst.Addr4(), 80)
	for _, fl := range []TCPFlags{FlagSYN, FlagACK} {
		pkt := w.AllocPacket()
		pkt.Proto = ProtoTCP
		pkt.Src, pkt.Dst = sp, dp
		pkt.Pad = 10
		pkt.SetTCP(fl, 0, 0)
		src.SendPacket(pkt)
	}
	if err := sched.Run(sched.Now() + 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())
	// The dst's TCP host answers with a RST, so a reverse flow exists
	// too; pick the forward one.
	var fwd *obs.FlowRecord
	for i := range buf.Records() {
		if r := &buf.Records()[i]; r.Src == sp {
			fwd = r
		}
	}
	if fwd == nil {
		t.Fatalf("no forward flow in %+v", buf.Records())
	}
	want := uint8(FlagSYN | FlagACK)
	if fwd.TCPFlags != want {
		t.Fatalf("tcp_flags=%b, want %b", fwd.TCPFlags, want)
	}
	if fwd.Proto != "tcp" {
		t.Fatalf("proto=%q", fwd.Proto)
	}
}

// TestFlowExportEdgeEndpoints pins every exported byte of flows whose
// endpoints are the addresses a node can originate from or to: IPv4,
// IPv6, IPv4-mapped IPv6 (the same 16 bytes as its IPv4 address), zoned
// IPv6 (which lookupRoute sends out the default device) and the zero
// Addr (the source a node without an IPv6 address uses). Flows that
// differ only in family or zone are distinct flows, and one node sends
// them all, interleaved, so its flow hint keeps meeting an entry with
// the packet's ports and address bytes but another family or zone.
func TestFlowExportEdgeEndpoints(t *testing.T) {
	sched, w, star := newStar(t, 1)
	buf := &obs.FlowBuffer{}
	w.EnableFlows(buf)
	w.AddFlowLabelRule(FlowLabelRule{Endpoint: netip.MustParseAddrPort("192.0.2.3:7777"), Label: "attack"})
	w.AddFlowLabelRule(FlowLabelRule{Addr: netip.MustParseAddr("fe80::3%eth0"), Label: "cnc"})
	h := star.AttachHost("h", 100*Mbps, sim.Millisecond, 0)

	ap := netip.MustParseAddrPort
	zero := netip.AddrPortFrom(netip.Addr{}, 5004)
	send := func(proto Protocol, src, dst netip.AddrPort, flags TCPFlags) {
		pkt := w.AllocPacket()
		pkt.Proto = proto
		pkt.Src, pkt.Dst = src, dst
		pkt.Pad = 100
		if proto == ProtoTCP {
			pkt.SetTCP(flags, 0, 0)
		}
		h.SendPacket(pkt)
	}
	v4 := func() { send(ProtoUDP, ap("192.0.2.2:5000"), ap("192.0.2.3:7777"), 0) }
	mapped := func() { send(ProtoUDP, ap("[::ffff:192.0.2.2]:5000"), ap("[::ffff:192.0.2.3]:7777"), 0) }
	eth0 := func() { send(ProtoUDP, ap("[fe80::2%eth0]:5003"), ap("[fe80::3%eth0]:546"), 0) }
	eth1 := func() { send(ProtoUDP, ap("[fe80::2%eth1]:5003"), ap("[fe80::3%eth1]:546"), 0) }
	noZone := func() { send(ProtoUDP, ap("[fe80::2]:5003"), ap("[fe80::3]:546"), 0) }
	fromZero := func() { send(ProtoUDP, zero, ap("[2001:db8::3]:547"), 0) }

	runTo := func(at sim.Time) {
		if err := sched.Run(at); err != nil {
			t.Fatal(err)
		}
	}
	step := func() { runTo(sched.Now() + 250*sim.Microsecond) }
	v4()
	mapped()
	step()
	v4()
	mapped()
	send(ProtoUDP, ap("[2001:db8::2]:5001"), ap("[2001:db8::3]:53"), 0)
	step()
	eth0()
	eth1()
	noZone()
	step()
	eth1()
	eth0()
	fromZero()
	step()
	send(ProtoTCP, ap("192.0.2.2:5005"), ap("192.0.2.3:80"), FlagSYN)
	step()
	send(ProtoTCP, ap("192.0.2.2:5005"), ap("192.0.2.3:80"), FlagACK)
	// Every flow idles out and is swept; the late flows start at 17 s.
	late := flowIdleTimeout + 2*flowSweepPeriod
	runTo(late)
	eth1()
	fromZero()
	step()
	v4()
	fromZero()
	runTo(late + sim.Second)
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())

	var csv strings.Builder
	if err := buf.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	stats, err := json.Marshal(buf.Stats())
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := `start_us,end_us,proto,src,dst,packets,bytes,tcp_flags,label,reason
0,250,udp,192.0.2.2:5000,192.0.2.3:7777,2,284,0,attack,idle
0,250,udp,[::ffff:192.0.2.2]:5000,[::ffff:192.0.2.3]:7777,2,324,0,benign,idle
250,250,udp,[2001:db8::2]:5001,[2001:db8::3]:53,1,162,0,benign,idle
500,750,udp,[fe80::2%eth0]:5003,[fe80::3%eth0]:546,2,324,0,cnc,idle
500,750,udp,[fe80::2%eth1]:5003,[fe80::3%eth1]:546,2,324,0,benign,idle
500,500,udp,[fe80::2]:5003,[fe80::3]:546,1,162,0,benign,idle
750,750,udp,invalid AddrPort,[2001:db8::3]:547,1,162,0,benign,idle
1000,1250,tcp,192.0.2.2:5005,192.0.2.3:80,2,308,3,benign,idle
17000000,17000000,udp,[fe80::2%eth1]:5003,[fe80::3%eth1]:546,1,162,0,benign,final
17000000,17000250,udp,invalid AddrPort,[2001:db8::3]:547,2,324,0,benign,final
17000250,17000250,udp,192.0.2.2:5000,192.0.2.3:7777,1,142,0,attack,final
`
	wantStats := `{"flows":11,"packets":17,"bytes":2678,"labels":[{"label":"attack","flows":2,"packets":3,"bytes":426},{"label":"benign","flows":8,"packets":12,"bytes":1928},{"label":"cnc","flows":1,"packets":2,"bytes":324}]}`
	if csv.String() != wantCSV {
		t.Errorf("csv:\n%s\nwant:\n%s", csv.String(), wantCSV)
	}
	if string(stats) != wantStats {
		t.Errorf("stats:\n%s\nwant:\n%s", stats, wantStats)
	}
}

// pointerField names the first part of typ that holds a pointer, or
// returns "" when typ is pointer-free.
func pointerField(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerField(f.Type); p != "" {
				return f.Name + "." + p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(typ.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return typ.Kind().String()
	}
	return ""
}

// TestFlowTableLayout pins the table's pointer-free layout: the
// garbage collector never scans the entry slab or the index map, and a
// live flow costs a 48-byte entry plus a 12-byte key in the map (its
// endpoints are ids in the buffer's endpoint table, each distinct one
// stored once).
func TestFlowTableLayout(t *testing.T) {
	for _, c := range []struct {
		v    any
		size uintptr
	}{{flowKey{}, 12}, {flowEntry{}, 48}} {
		typ := reflect.TypeOf(c.v)
		if f := pointerField(typ); f != "" {
			t.Errorf("%s holds a pointer in %s; the flow table must be pointer-free", typ.Name(), f)
		}
		if typ.Size() != c.size {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", typ.Name(), typ.Size(), c.size)
		}
	}
}

// TestUDPFloodPathZeroAllocWithFlows pins the tentpole's hot-path
// guarantee: with flow accounting enabled, the steady-state per-packet
// cost of the UDP flood path allocates nothing. CI asserts on this
// test by name.
func TestUDPFloodPathZeroAllocWithFlows(t *testing.T) {
	if SanitizerEnabled() {
		t.Skip("simdebug sanitizer records call sites and allocates")
	}
	sched, w, star := newStar(t, 1)
	w.EnableFlows(&obs.FlowBuffer{})
	src := star.AttachHost("src", 100*Mbps, sim.Millisecond, 0)
	dst := star.AttachHost("dst", 100*Mbps, sim.Millisecond, 0)
	if _, err := dst.BindUDP(80, nil); err != nil {
		t.Fatal(err)
	}
	sock, err := src.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := netip.AddrPortFrom(dst.Addr4(), 80)

	step := func() {
		sock.SendPadded(target, nil, 512)
		if err := sched.Run(sched.Now() + 100*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the packet pool, flow table, and queue slots.
	for i := 0; i < 64; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("flood path allocates %.2f/op with flows enabled, want 0", avg)
	}
}

// BenchmarkUDPFloodPathFlows is BenchmarkUDPFloodPath with flow
// accounting enabled; the pair's difference is what flow accounting
// costs per datagram.
func BenchmarkUDPFloodPathFlows(b *testing.B) {
	sched, w, star := newStar(b, 1)
	buf := &obs.FlowBuffer{}
	w.EnableFlows(buf)
	src := star.AttachHost("src", 100*Mbps, sim.Millisecond, 0)
	dst := star.AttachHost("dst", 100*Mbps, sim.Millisecond, 0)
	if _, err := dst.BindUDP(80, nil); err != nil {
		b.Fatal(err)
	}
	sock, err := src.BindUDP(0, nil)
	if err != nil {
		b.Fatal(err)
	}
	target := netip.AddrPortFrom(dst.Addr4(), 80)

	sent := 0
	var pump func()
	pump = func() {
		if sent >= b.N {
			return
		}
		sent++
		sock.SendPadded(target, nil, 512)
		sched.Schedule(100*sim.Microsecond, srcTest, pump)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sched.Schedule(0, srcTest, pump)
	// Run (not RunAll): the flow sweeper re-arms forever, so drain up
	// to a horizon past the last send instead of exhausting the queue.
	horizon := sim.Time(int64(b.N+1)) * 100 * sim.Microsecond
	if err := sched.Run(horizon); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if sock.TxDatagrams != uint64(b.N) {
		b.Fatalf("sent %d datagrams, want %d", sock.TxDatagrams, b.N)
	}
	w.Flows().Stop()
	w.Flows().FlushAll(sched.Now())
	var pkts uint64
	for _, r := range buf.Records() {
		pkts += r.Packets
	}
	if pkts != uint64(b.N) {
		b.Fatalf("flow records account %d packets, want %d", pkts, b.N)
	}
}
