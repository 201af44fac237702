//go:build simdebug

// Cross-validation of the static ownership analysis by the runtime
// pool sanitizer: the same deliberate use-after-release fixture that
// the pktown analyzer flags at its exact line
// (internal/lint/testdata/pktown/uaf, golden pktown_uaf.txt) must
// panic here when actually executed under -tags simdebug. The test
// lives in an external package because the fixture imports netsim.
package netsim_test

import (
	"net/netip"
	"strings"
	"testing"

	"ddosim/internal/lint/testdata/pktown/uaf"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// srcTest labels the events this package's tests schedule.
var srcTest = sim.NewSource("test")

// mustPanic runs fn and returns the recovered panic message,
// failing the test if fn returns normally.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		fn()
		t.Fatal("expected sanitizer panic, got normal return")
	}()
	return msg
}

func TestSanitizerEnabled(t *testing.T) {
	if !netsim.SanitizerEnabled() {
		t.Fatal("built with -tags simdebug but SanitizerEnabled() = false")
	}
}

// TestSanitizerCatchesUAFFixture executes the deliberate-violation
// fixture: the analyzer catches it statically, the sanitizer must
// catch it dynamically, with alloc and release sites in the message.
func TestSanitizerCatchesUAFFixture(t *testing.T) {
	w := netsim.New(sim.NewScheduler(1))
	msg := mustPanic(t, func() { uaf.Provoke(w) })
	for _, want := range []string{"use of released packet", "Size", "allocated at", "released at", "uaf.go"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message missing %q:\n%s", want, msg)
		}
	}
}

func TestSanitizerCatchesDoubleRelease(t *testing.T) {
	w := netsim.New(sim.NewScheduler(1))
	p := w.AllocPacket()
	w.ReleasePacket(p)
	msg := mustPanic(t, func() { w.ReleasePacket(p) })
	if !strings.Contains(msg, "double release") || !strings.Contains(msg, "first released at") {
		t.Errorf("unexpected double-release message:\n%s", msg)
	}
}

// TestSanitizerGenerationAdvances: each recycle bumps the generation
// stamp, so a stale reference is distinguishable from the struct's
// next life.
func TestSanitizerGenerationAdvances(t *testing.T) {
	w := netsim.New(sim.NewScheduler(1))
	p := w.AllocPacket()
	g0 := p.Generation()
	w.ReleasePacket(p)
	q := w.AllocPacket()
	if q != p {
		t.Skip("free list did not recycle the same struct")
	}
	if q.Generation() != g0+1 {
		t.Fatalf("generation = %d after recycle, want %d", q.Generation(), g0+1)
	}
	w.ReleasePacket(q)
}

// TestSanitizerCleanTrafficQuiet: legitimate traffic through the full
// device/node path must not trip any check — the sanitizer's checks
// sit on the hot path, so false panics would make simdebug useless.
func TestSanitizerCleanTrafficQuiet(t *testing.T) {
	sched := sim.NewScheduler(1)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	a := star.AttachHost("a", 10*netsim.Mbps, sim.Millisecond, 0)
	b := star.AttachHost("b", 10*netsim.Mbps, sim.Millisecond, 0)
	if _, err := b.BindUDP(7, nil); err != nil {
		t.Fatal(err)
	}
	sock, err := a.BindUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := netip.AddrPortFrom(b.Addr4(), 7)
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * sim.Millisecond
		sched.ScheduleAt(at, srcTest, func() { sock.SendPadded(dst, nil, 64) })
	}
	if err := sched.RunAll(); err != nil {
		t.Fatal(err)
	}
	if st := w.PoolStats(); st.Reused == 0 {
		t.Fatalf("pool never recycled under sanitizer: %+v", st)
	}
}
