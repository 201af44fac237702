package mirai

import (
	"net/netip"
	"testing"

	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// idleBehavior owns nothing; it exists to get a live Process for a
// standalone Flooder without a C&C in the loop.
type idleBehavior struct{}

func (idleBehavior) Name() string               { return "idle" }
func (idleBehavior) Start(p *container.Process) {}
func (idleBehavior) Stop(p *container.Process)  {}

// newFloodRig builds a standalone Flooder on a bot container and a
// UDP target on a TServer node, both at 100 Mbps.
func newFloodRig(t *testing.T) (*rig, *Flooder, netip.AddrPort) {
	t.Helper()
	r := newRig(t)
	tserver := r.star.AttachHost("tserver", 100*netsim.Mbps, sim.Millisecond, 0)
	if _, err := tserver.BindUDP(80, nil); err != nil {
		t.Fatal(err)
	}
	img := &container.Image{
		Name: "ddosim/p2p", Tag: "t", Arch: "x86_64",
		Files: map[string][]byte{}, ExecPaths: map[string]bool{},
	}
	r.engine.RegisterImage(img)
	c, err := r.engine.Create("ddosim/p2p:t", "p2p-bot", r.link(100*netsim.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return r, NewFlooder(c.Spawn(idleBehavior{}), 0), netip.AddrPortFrom(tserver.Addr4(), 80)
}

// TestP2PFloodPathZeroAlloc pins the DHT family's flood loop — a
// LaunchUntil order driving the shared Flooder's tick chain, the
// path internal/p2pbot bots take when a replicated record commands an
// attack — at zero steady-state allocations per event slice. It is
// the companion of netsim's TestUDPFloodPathZeroAllocWithFlows, and
// the dynamic half of the //simlint:hotpath contract on Flooder.tick:
// the re-arm must go through the pre-bound tickFn, never a fresh
// closure. CI asserts on this test by name.
func TestP2PFloodPathZeroAlloc(t *testing.T) {
	if netsim.SanitizerEnabled() {
		t.Skip("simdebug sanitizer records call sites and allocates")
	}
	r, f, target := newFloodRig(t)
	if !f.LaunchUntil(MethodUDPPlain, target, 60*sim.Minute, 0, nil) {
		t.Fatal("LaunchUntil failed")
	}

	step := func() {
		if err := r.sched.Run(r.sched.Now() + 10*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the packet pool, device queues, and scheduler slots.
	for i := 0; i < 64; i++ {
		step()
	}
	if !f.Attacking() {
		t.Fatal("flood not live after warm-up")
	}
	before := f.Sent()
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("p2p flood path allocates %.2f/op, want 0", avg)
	}
	if f.Sent() == before {
		t.Fatal("flood made no progress during measurement")
	}
}

// TestLaunchUntilExpiredNeverStarts pins the first-packet contract of
// onStart: an order whose start falls at or after its end sends nothing
// and reports no flood start.
func TestLaunchUntilExpiredNeverStarts(t *testing.T) {
	r, f, target := newFloodRig(t)
	started := 0
	if !f.LaunchUntil(MethodUDPPlain, target, r.sched.Now(), 0, func() { started++ }) {
		t.Fatal("LaunchUntil failed")
	}
	if err := r.sched.Run(r.sched.Now() + sim.Second); err != nil {
		t.Fatal(err)
	}
	if started != 0 || f.Sent() != 0 || f.Attacking() {
		t.Fatalf("expired order: onStart called %d times, %d packets sent, attacking %v",
			started, f.Sent(), f.Attacking())
	}
}
