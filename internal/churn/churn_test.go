package churn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ddosim/internal/sim"
)

func TestLeavingFactor(t *testing.T) {
	cases := []struct {
		q, e, want float64
	}{
		{1, 1, 0}, // perfect link, full energy: never leaves
		{0, 0, 1}, // dead link, empty battery: maximal factor
		{0.5, 0.5, 0.25},
		{0.2, 0.6, 0.32},
	}
	for _, c := range cases {
		got := Host{Q: c.q, E: c.e}.LeavingFactor()
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("L(q=%v,e=%v) = %v, want %v", c.q, c.e, got, c.want)
		}
	}
}

func TestLeavingProbabilityEq1(t *testing.T) {
	// Eq. 1 with the Fan et al. coefficients: piecewise by L.
	cases := []struct {
		l, want float64
	}{
		{0.2, 0.16 * 0.2}, // L <= 0.4 -> phi1
		{0.4, 0.16 * 0.4}, // boundary belongs to first branch
		{0.5, 0.08 * 0.5}, // 0.4 < L <= 0.7 -> phi2
		{0.7, 0.08 * 0.7}, // boundary belongs to second branch
		{0.9, 0.04 * 0.9}, // L > 0.7 -> phi3
	}
	for _, c := range cases {
		// Construct a host with the desired L: q=0, e=1-L.
		h := Host{Q: 0, E: 1 - c.l}
		got := h.LeavingProbability(FanCoefficients)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("l(L=%v) = %v, want %v", c.l, got, c.want)
		}
	}
}

// Property: the leaving probability is always within [0, max(phi)*1].
func TestPropertyLeavingProbabilityBounded(t *testing.T) {
	f := func(q, e float64) bool {
		h := Host{Q: math.Abs(math.Mod(q, 1)), E: math.Abs(math.Mod(e, 1))}
		p := h.LeavingProbability(FanCoefficients)
		return p >= 0 && p <= 0.16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: higher link quality and energy never increase the leaving
// factor.
func TestPropertyLeavingFactorMonotone(t *testing.T) {
	f := func(q, e, dq float64) bool {
		q = math.Abs(math.Mod(q, 1))
		e = math.Abs(math.Mod(e, 1))
		dq = math.Abs(math.Mod(dq, 1-q))
		base := Host{Q: q, E: e}.LeavingFactor()
		better := Host{Q: q + dq, E: e}.LeavingFactor()
		return better <= base+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"none": None, "": None, "static": Static, "dynamic": Dynamic,
		"sessions": Sessions,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("quantum"); err == nil {
		t.Fatal("bad mode accepted")
	}
	for _, m := range []Mode{None, Static, Dynamic, Sessions, Mode(99)} {
		if m.String() == "" {
			t.Errorf("Mode(%d).String empty", m)
		}
	}
}

// fakeDevice implements Device.
type fakeDevice struct {
	name   string
	online bool
	flips  int
}

func (d *fakeDevice) Name() string { return d.name }
func (d *fakeDevice) SetOnline(up bool) {
	d.online = up
	d.flips++
}
func (d *fakeDevice) Online() bool { return d.online }

func fleet(n int) ([]Device, []*fakeDevice) {
	devs := make([]Device, n)
	raw := make([]*fakeDevice, n)
	for i := range devs {
		raw[i] = &fakeDevice{name: "dev", online: true}
		devs[i] = raw[i]
	}
	return devs, raw
}

func TestNoneModeTouchesNothing(t *testing.T) {
	sched := sim.NewScheduler(1)
	devs, raw := fleet(50)
	c := NewController(sched, None, devs)
	c.Start()
	if err := sched.Run(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	for _, d := range raw {
		if d.flips != 0 {
			t.Fatal("no-churn mode flipped a device")
		}
	}
	if c.Departures() != 0 || c.Rejoins() != 0 {
		t.Fatalf("counters = %d/%d", c.Departures(), c.Rejoins())
	}
}

func TestStaticChurnLeavesOnceAndNeverRejoins(t *testing.T) {
	sched := sim.NewScheduler(7)
	devs, raw := fleet(2000)
	c := NewController(sched, Static, devs)
	c.Start()
	left := 0
	for _, d := range raw {
		if !d.online {
			left++
			if d.flips != 1 {
				t.Fatal("departed device flipped more than once")
			}
		}
	}
	if left == 0 {
		t.Fatal("static churn removed nobody in a fleet of 2000")
	}
	// Expected departures: E[l(h)] is a few percent of the fleet.
	if left > 400 {
		t.Fatalf("static churn removed %d/2000, far above the model's rates", left)
	}
	// Time passes; nothing else changes.
	if err := sched.Run(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	after := 0
	for _, d := range raw {
		if !d.online {
			after++
		}
	}
	if after != left {
		t.Fatalf("membership changed after outset: %d -> %d", left, after)
	}
	if c.Rejoins() != 0 {
		t.Fatal("static churn rejoined a device")
	}
}

func TestDynamicChurnDepartsAndRejoins(t *testing.T) {
	sched := sim.NewScheduler(11)
	devs, _ := fleet(500)
	c := NewController(sched, Dynamic, devs)
	var events []bool
	c.OnChange = func(at sim.Time, dev Device, online bool) {
		events = append(events, online)
	}
	c.Start()
	if err := sched.Run(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if c.Departures() == 0 {
		t.Fatal("dynamic churn never departed a device")
	}
	if c.Rejoins() == 0 {
		t.Fatal("dynamic churn never rejoined a device")
	}
	if len(events) != int(c.Departures()+c.Rejoins()) {
		t.Fatalf("OnChange fired %d times, counters say %d", len(events), c.Departures()+c.Rejoins())
	}
	c.Stop()
	dAtStop, rAtStop := c.Departures(), c.Rejoins()
	if err := sched.Run(20 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if c.Departures() != dAtStop || c.Rejoins() != rAtStop {
		t.Fatal("churn continued after Stop")
	}
}

func TestDynamicChurnEpoch(t *testing.T) {
	sched := sim.NewScheduler(3)
	devs, _ := fleet(100)
	c := NewController(sched, Dynamic, devs)
	c.SetEpoch(5 * sim.Second)
	evals := 0
	c.OnChange = func(sim.Time, Device, bool) { evals++ }
	c.Start()
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if evals == 0 {
		t.Fatal("no churn events with a 5s epoch over a minute")
	}
}

func TestSetEpochRejectsNonPositive(t *testing.T) {
	sched := sim.NewScheduler(1)
	c := NewController(sched, Dynamic, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("zero epoch accepted")
		}
	}()
	c.SetEpoch(0)
}

func TestControllerDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		sched := sim.NewScheduler(42)
		devs, _ := fleet(300)
		c := NewController(sched, Dynamic, devs)
		c.Start()
		if err := sched.Run(5 * sim.Minute); err != nil {
			t.Fatal(err)
		}
		return c.Departures(), c.Rejoins()
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1 != r2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", d1, r1, d2, r2)
	}
}

func TestSessionsChurnAlternates(t *testing.T) {
	sched := sim.NewScheduler(5)
	devs, raw := fleet(50)
	c := NewController(sched, Sessions, devs)
	c.Start()
	// Ten mean online sessions: a device stays up the whole horizon
	// with probability e^-10.
	horizon := 10 * DefaultMeanOnline
	if err := sched.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if c.Departures() == 0 || c.Rejoins() == 0 {
		t.Fatalf("sessions churn: -%d/+%d", c.Departures(), c.Rejoins())
	}
	// Every device should have flipped at least once over the horizon.
	for i, d := range raw {
		if d.flips == 0 {
			t.Fatalf("device %d never flipped", i)
		}
	}
	// Long-run online fraction approaches meanOn/(meanOn+meanOff).
	online := 0
	for _, d := range raw {
		if d.online {
			online++
		}
	}
	frac := float64(online) / float64(len(raw))
	want := float64(DefaultMeanOnline) / float64(DefaultMeanOnline+DefaultMeanOffline)
	if frac < want-0.2 || frac > want+0.2 {
		t.Fatalf("online fraction %.2f, want near %.2f", frac, want)
	}
	// Stop halts all future flips.
	c.Stop()
	flips := totalFlips(raw)
	if err := sched.Run(2 * horizon); err != nil {
		t.Fatal(err)
	}
	if totalFlips(raw) != flips {
		t.Fatal("sessions churn continued after Stop")
	}
}

func totalFlips(devs []*fakeDevice) int {
	n := 0
	for _, d := range devs {
		n += d.flips
	}
	return n
}

func TestRandomHostInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h := RandomHost(rng)
		if h.Q < 0 || h.Q >= 1 || h.E < 0 || h.E >= 1 {
			t.Fatalf("host out of range: %+v", h)
		}
	}
}

func TestHostsSnapshot(t *testing.T) {
	sched := sim.NewScheduler(1)
	devs, _ := fleet(10)
	c := NewController(sched, Static, devs)
	hosts := c.Hosts()
	if len(hosts) != 10 {
		t.Fatalf("hosts = %d", len(hosts))
	}
	hosts[0] = Host{} // mutating the copy must not affect the controller
	if c.Hosts()[0] == (Host{}) && hosts[0] == c.Hosts()[0] {
		t.Fatal("Hosts returned internal slice")
	}
}
