package netsim

import (
	"bytes"
	"net/netip"
	"testing"

	"ddosim/internal/sim"
)

func TestLossRateDropsFraction(t *testing.T) {
	sched, w, star := newStar(t, 3)
	a := star.AttachHost("a", 100*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 100*Mbps, sim.Millisecond, 0)
	b.DefaultDevice().SetLossRate(0.3)
	got := 0
	if _, err := b.BindUDP(9, func(netip.AddrPort, []byte, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	const n = 2000
	dst := netip.AddrPortFrom(b.Addr4(), 9)
	for i := 0; i < n; i++ {
		// Paced sends so the drop-tail queue never overflows: only
		// the configured loss should drop packets.
		sched.ScheduleAt(sim.Time(i)*sim.Millisecond, srcTest, func() {
			sock.SendPadded(dst, nil, 100)
		})
	}
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	frac := float64(got) / n
	if frac < 0.62 || frac > 0.78 {
		t.Fatalf("delivered fraction %v with 30%% loss", frac)
	}
	wantDropped(t, w, [NumDropReasons]uint64{DropLoss: n - uint64(got)})
	if b.DefaultDevice().LossRate() != 0.3 {
		t.Fatal("LossRate accessor")
	}
}

func TestTCPSurvivesLossyLink(t *testing.T) {
	// Go-back-N must deliver a transfer intact over a 10%-loss link.
	sched, client, server, _ := tcpPair(t)
	server.DefaultDevice().SetLossRate(0.10)
	client.DefaultDevice().SetLossRate(0.10)
	payload := bytes.Repeat([]byte("resilient"), 2000) // 18 KB
	var got bytes.Buffer
	if _, err := server.ListenTCP(80, func(c *TCPConn) {
		c.SetDataHandler(func(data []byte) { got.Write(data) })
	}); err != nil {
		t.Fatal(err)
	}
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 80), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Send(payload); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := sched.Run(5 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("lossy transfer corrupted: %d of %d bytes", got.Len(), len(payload))
	}
}

func TestLossRateOneDropsEveryFrame(t *testing.T) {
	// p = 1.0 is a dead receive path: every frame drops, and because
	// Float64 draws from [0,1) the device still burns exactly one RNG
	// draw per frame — the sequence seen by every p < 1 consumer is
	// unchanged.
	sched, w, star := newStar(t, 3)
	a := star.AttachHost("a", 100*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 100*Mbps, sim.Millisecond, 0)
	b.DefaultDevice().SetLossRate(1.0)
	got := 0
	if _, err := b.BindUDP(9, func(netip.AddrPort, []byte, int) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, _ := a.BindUDP(0, nil)
	const n = 200
	dst := netip.AddrPortFrom(b.Addr4(), 9)
	for i := 0; i < n; i++ {
		sched.ScheduleAt(sim.Time(i)*sim.Millisecond, srcTest, func() {
			sock.SendPadded(dst, nil, 100)
		})
	}
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("%d frames delivered at loss 1.0", got)
	}
	// One draw per frame, and each frame dropped once.
	wantDropped(t, w, [NumDropReasons]uint64{DropLoss: n})
}

func TestSetLossRateValidation(t *testing.T) {
	_, _, star := newStar(t, 3)
	a := star.AttachHost("a", Mbps, 0, 0)
	// The closed interval [0,1] is legal: 1.0 models a dead receive
	// path (fault injection's worst-case loss burst).
	a.DefaultDevice().SetLossRate(1.0)
	a.DefaultDevice().SetLossRate(0)
	defer func() {
		if recover() == nil {
			t.Fatal("loss rate 1.5 accepted")
		}
	}()
	a.DefaultDevice().SetLossRate(1.5)
}
