package netsim

import (
	"net/netip"
	"testing"

	"ddosim/internal/sim"
)

// TestPacketPoolRecycles: a sustained UDP flow must be served from the
// free list after warm-up, not from the heap.
func TestPacketPoolRecycles(t *testing.T) {
	sched, w, star := newStar(t, 1)
	a := star.AttachHost("a", 10*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 10*Mbps, sim.Millisecond, 0)
	if _, err := b.BindUDP(7, nil); err != nil {
		t.Fatal(err)
	}
	sock, err := a.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := netip.AddrPortFrom(b.Addr4(), 7)
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		sched.ScheduleAt(at, func() { sock.SendPadded(dst, nil, 64) })
	}
	if err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	st := w.PoolStats()
	if st.Reused == 0 {
		t.Fatalf("pool never reused a packet: %+v", st)
	}
	// Spaced sends mean at most a couple of packets are ever live at
	// once; everything after warm-up must recycle.
	if st.Allocated > 8 {
		t.Fatalf("pool allocated %d packets for a serialized flow: %+v", st.Allocated, st)
	}
}

// TestPooledCloneIsolation: clones made for multicast fan-out must not
// share payload or header storage with the original.
func TestPooledCloneIsolation(t *testing.T) {
	sched := sim.NewScheduler(1)
	w := New(sched)
	p := w.AllocPacket()
	p.Payload = []byte{1, 2, 3}
	p.SetTCP(FlagSYN, 7, 8)
	cp := w.clonePacket(p)
	cp.Payload[0] = 99
	cp.TCP.Seq = 100
	if p.Payload[0] != 1 || p.TCP.Seq != 7 {
		t.Fatal("clonePacket shares state with original")
	}
	if cp.TCP != &cp.hdr {
		t.Fatal("clone's TCP header does not use in-struct storage")
	}
}

// TestSetTCPCloneFixup: Packet.Clone on a SetTCP packet must rebind the
// header pointer to the clone's own storage.
func TestSetTCPCloneFixup(t *testing.T) {
	p := &Packet{}
	p.SetTCP(FlagACK, 1, 2)
	c := p.Clone()
	if c.TCP == p.TCP {
		t.Fatal("Clone shares TCP header storage with original")
	}
	c.TCP.Ack = 9
	if p.TCP.Ack != 2 {
		t.Fatal("mutating clone header leaked into original")
	}
}

// TestPktRingFIFO exercises the ring through growth and wrap-around:
// pushing 7 and popping 5 per round leaves the head mid-buffer, so the
// ring wraps and then grows while wrapped. Indices wrap with a mask,
// so the capacity must stay a power of two.
func TestPktRingFIFO(t *testing.T) {
	var r pktRing
	mk := func(uid uint64) *Packet { return &Packet{UID: uid} }
	next := uint64(0)
	out := uint64(0)
	grewWrapped := false
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			next++
			wrapped, size := r.head+r.n > len(r.buf), len(r.buf)
			r.push(mk(next))
			if len(r.buf)&(len(r.buf)-1) != 0 {
				t.Fatalf("capacity %d is not a power of two", len(r.buf))
			}
			grewWrapped = grewWrapped || (wrapped && len(r.buf) > size)
		}
		for i := 0; i < 5; i++ {
			out++
			if got := r.pop(); got.UID != out {
				t.Fatalf("pop = %d, want %d", got.UID, out)
			}
		}
	}
	for r.len() > 0 {
		out++
		if got := r.pop(); got.UID != out {
			t.Fatalf("drain pop = %d, want %d", got.UID, out)
		}
	}
	if out != next {
		t.Fatalf("drained %d, pushed %d", out, next)
	}
	if !grewWrapped {
		t.Fatal("the ring never grew while wrapped")
	}
}
