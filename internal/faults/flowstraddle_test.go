package faults

import (
	"net/netip"
	"testing"

	"ddosim/internal/netsim"
	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// Flow-expiry edge cases under fault injection: a flow that straddles
// a link flap or a C&C outage must still close with exactly the
// byte/packet counts the sender offered. Flow accounting happens at
// origination (offered load), so injected drops change what the sink
// sees but never what the flow records say — that conservation is the
// invariant these tests pin.
//
// v4UDPFrameOverhead mirrors netsim's ether+IPv4+UDP header sizes
// (14+20+8) used by Packet.Size.
const v4UDPFrameOverhead = 14 + 20 + 8

// flowFaultRig is a star with flow export into buf and a src→dst UDP
// stream driven by a self-rescheduling pump.
type flowFaultRig struct {
	sched  *sim.Scheduler
	net    *netsim.Network
	buf    *obs.FlowBuffer
	src    *netsim.Node
	sock   *netsim.UDPSocket
	target netip.AddrPort
}

func newFlowFaultRig(t *testing.T) *flowFaultRig {
	t.Helper()
	sched := sim.NewScheduler(7)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	buf := &obs.FlowBuffer{}
	w.EnableFlows(buf)
	src := star.AttachHost("src", 10*netsim.Mbps, sim.Millisecond, 8)
	dst := star.AttachHost("dst", 10*netsim.Mbps, sim.Millisecond, 8)
	if _, err := dst.BindUDP(80, nil); err != nil {
		t.Fatal(err)
	}
	sock, err := src.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &flowFaultRig{
		sched: sched, net: w, buf: buf, src: src, sock: sock,
		target: netip.AddrPortFrom(dst.Addr4(), 80),
	}
}

// pump sends one padded datagram every interval until stop.
func (r *flowFaultRig) pump(interval, stop sim.Time, pad int) {
	var step func()
	step = func() {
		if r.sched.Now() >= stop {
			return
		}
		r.sock.SendPadded(r.target, nil, pad)
		r.sched.Schedule(interval, srcTest, step)
	}
	r.sched.Schedule(0, srcTest, step)
}

// drain finishes the run and returns total packets/bytes across all
// exported records.
func (r *flowFaultRig) drain(t *testing.T) (pkts, bytes uint64) {
	t.Helper()
	ft := r.net.Flows()
	ft.Stop()
	ft.FlushAll(r.sched.Now())
	for _, rec := range r.buf.Records() {
		pkts += rec.Packets
		bytes += rec.Bytes
	}
	return pkts, bytes
}

func TestFlowStraddlesLinkFlaps(t *testing.T) {
	rig := newFlowFaultRig(t)
	inj, err := New(rig.sched, Config{
		FlapPeriod: 8 * sim.Second,
		FlapDown:   3 * sim.Second,
		FlapMode:   FlapPeriodic,
	}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.AddLink("src-uplink", rig.src.DefaultDevice())
	inj.Start()

	// One continuous stream across several flap cycles. The 200ms
	// inter-packet gap stays under the 15s idle timeout, so the flow
	// never goes idle — it straddles every outage.
	rig.pump(200*sim.Millisecond, 60*sim.Second, 256)
	if err := rig.sched.Run(61 * sim.Second); err != nil {
		t.Fatal(err)
	}
	inj.Stop()
	if inj.Stats().LinkFlaps == 0 {
		t.Fatal("scenario injected no flaps")
	}

	pkts, bytes := rig.drain(t)
	if pkts != rig.sock.TxDatagrams {
		t.Fatalf("flow records account %d packets, socket offered %d", pkts, rig.sock.TxDatagrams)
	}
	frame := uint64(v4UDPFrameOverhead + 256)
	if bytes != pkts*frame {
		t.Fatalf("flow bytes %d, want %d (%d × %d-byte frames)", bytes, pkts*frame, pkts, frame)
	}
	// Drops really happened (the link was down for ~3s out of every
	// 8s), so delivered load is visibly below offered load — proving
	// the flow counts are origination-side, not delivery-side.
	if rig.src.Network().Stats().Dropped[netsim.DropDown] == 0 {
		t.Fatal("flaps caused no down-drops; straddling untested")
	}
}

func TestFlowStraddlesCNCOutage(t *testing.T) {
	rig := newFlowFaultRig(t)
	inj, err := New(rig.sched, Config{
		CNCOutagePeriod: 10 * sim.Second,
		CNCOutageDown:   4 * sim.Second,
	}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Model the src as the C&C uplink: outages sever its device.
	inj.SetCNC("src", rig.src.DefaultDevice(), ProcTarget{})
	inj.Start()

	rig.pump(500*sim.Millisecond, 60*sim.Second, 128)
	if err := rig.sched.Run(61 * sim.Second); err != nil {
		t.Fatal(err)
	}
	inj.Stop()
	if inj.Stats().CNCOutages == 0 {
		t.Fatal("scenario injected no C&C outages")
	}

	pkts, bytes := rig.drain(t)
	if pkts != rig.sock.TxDatagrams {
		t.Fatalf("flow records account %d packets, socket offered %d", pkts, rig.sock.TxDatagrams)
	}
	frame := uint64(v4UDPFrameOverhead + 128)
	if bytes != pkts*frame {
		t.Fatalf("flow bytes %d, want %d", bytes, pkts*frame)
	}
	// Conservation must also hold per record: no record may span
	// backwards or carry zero packets.
	for i, rec := range rig.buf.Records() {
		if rec.Packets == 0 || rec.EndUS < rec.StartUS {
			t.Fatalf("degenerate record %d: %+v", i, rec)
		}
	}
}
