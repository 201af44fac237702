package netsim

import (
	"net/netip"
	"testing"

	"ddosim/internal/sim"
)

// BenchmarkUDPFloodPath measures the full per-datagram cost of the
// attack hot path — socket send, routing, drop-tail queue, link
// serialization, propagation, sink delivery — the loop a Mirai
// UDP-PLAIN flood drives millions of times per run. With the packet
// free list warm, the steady state should not allocate.
func BenchmarkUDPFloodPath(b *testing.B) {
	sched, _, star := newStar(b, 1)
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
	if err := sched.RunAll(); err != nil {
		b.Fatal(err)
	}
	if sock.TxDatagrams != uint64(b.N) {
		b.Fatalf("sent %d datagrams, want %d", sock.TxDatagrams, b.N)
	}
}
