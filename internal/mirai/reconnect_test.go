package mirai

import (
	"net/netip"
	"testing"

	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// runFor advances the scheduler by d from its current clock
// (Scheduler.Run takes an absolute horizon).
func runFor(t *testing.T, s *sim.Scheduler, d sim.Time) {
	t.Helper()
	if err := s.Run(s.Now() + d); err != nil {
		t.Fatal(err)
	}
}

// TestReconnectKeepsSinglePingTicker pins the ping-ticker leak fix: a
// bot surviving N churn-driven reconnect cycles must end with exactly
// one armed ticker (the current session's keepalive), not one per
// session it ever established.
func TestReconnectKeepsSinglePingTicker(t *testing.T) {
	r := newRig(t)
	attacker, cnc := r.spawnCNC(t, CNCConfig{})
	victim, bot := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 500*netsim.Kbps)
	runFor(t, r.sched, 5*sim.Second)
	if cnc.BotCount() != 1 {
		t.Fatalf("precondition: bot count = %d", cnc.BotCount())
	}

	const cycles = 5
	dev := victim.Node().DefaultDevice()
	for i := 0; i < cycles; i++ {
		// Down long enough for the next ping's retransmissions to run
		// out and close the session.
		dev.SetUp(false)
		runFor(t, r.sched, pingPeriod+sim.Minute)
		dev.SetUp(true)
		runFor(t, r.sched, 3*sim.Minute)
	}
	if !bot.Connected() {
		t.Fatal("bot did not reconnect after churn cycles")
	}
	if bot.Reconnects < cycles {
		t.Fatalf("Reconnects = %d, want >= %d", bot.Reconnects, cycles)
	}
	procs := victim.Procs()
	if len(procs) != 1 {
		t.Fatalf("process table = %d entries", len(procs))
	}
	if got := procs[0].ActiveTickers(); got != 1 {
		t.Fatalf("active tickers after %d reconnects = %d, want exactly 1 (leak)", cycles, got)
	}
}

// TestPingTickerStoppedWhileDisconnected checks the other half of the
// leak fix: between sessions the keepalive must be disarmed, not left
// firing into a dead connection.
func TestPingTickerStoppedWhileDisconnected(t *testing.T) {
	r := newRig(t)
	attacker, _ := r.spawnCNC(t, CNCConfig{})
	victim, bot := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 500*netsim.Kbps)
	runFor(t, r.sched, 5*sim.Second)
	if !bot.Connected() {
		t.Fatal("precondition: bot not connected")
	}
	// Take the uplink down; the bot's next ping (within pingPeriod)
	// exhausts its retransmissions (~25 s) and tears the session down,
	// and with the uplink still down every re-dial fails, leaving it in
	// the disconnected state.
	victim.Node().DefaultDevice().SetUp(false)
	runFor(t, r.sched, pingPeriod+sim.Minute)
	if bot.Connected() {
		t.Fatal("bot still considers the dead session connected")
	}
	if got := victim.Procs()[0].ActiveTickers(); got != 0 {
		t.Fatalf("active tickers while disconnected = %d, want 0", got)
	}
}

// TestReconnectBackoffJitter pins the reconnect-herd fix: delays grow
// exponentially with consecutive failures, are capped, and carry
// per-draw jitter so a fleet severed by one C&C outage does not
// re-dial in lock-step.
func TestReconnectBackoffJitter(t *testing.T) {
	r := newRig(t)
	attacker, _ := r.spawnCNC(t, CNCConfig{})
	_, bot := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 500*netsim.Kbps)

	for fails := 0; fails <= 6; fails++ {
		bot.dialFails = fails
		want := reconnectBase << fails
		if want > reconnectCap {
			want = reconnectCap
		}
		for i := 0; i < 8; i++ {
			d := bot.reconnectDelay()
			if d < want || d >= want+reconnectBase {
				t.Fatalf("fails=%d draw=%d: delay %v outside [%v, %v)", fails, i, d, want, want+reconnectBase)
			}
		}
	}
	// Jitter must actually vary across draws.
	bot.dialFails = 0
	seen := make(map[sim.Time]bool)
	for i := 0; i < 32; i++ {
		seen[bot.reconnectDelay()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 jitter draws produced %d distinct delays, want spread", len(seen))
	}
}

// TestReapSilentBotsAfterCrash is the process-crash coverage for
// CNC.reapSilentBots: a bot whose process dies behind a downed link —
// no FIN/RST ever reaches the C&C — must be deregistered once its
// pings have been silent for botTimeout, and the registry count must
// agree with the registration/loss counters.
func TestReapSilentBotsAfterCrash(t *testing.T) {
	r := newRig(t)
	lost := 0
	attacker, cnc := r.spawnCNC(t, CNCConfig{
		OnBotLost: func(netip.Addr) { lost++ },
	})
	victim, _ := r.spawnBot(t, "dev-1", BotConfig{
		CNC: netip.AddrPortFrom(attacker.Node().Addr4(), CNCPort),
	}, 500*netsim.Kbps)
	runFor(t, r.sched, 5*sim.Second)
	if cnc.BotCount() != 1 || cnc.TotalRegistered != 1 {
		t.Fatalf("precondition: count=%d registered=%d", cnc.BotCount(), cnc.TotalRegistered)
	}

	// Crash the bot mid-ping with its uplink down: the teardown's abort
	// cannot reach the C&C, so only the reaper can notice.
	victim.Node().DefaultDevice().SetUp(false)
	procs := victim.Procs()
	if len(procs) != 1 {
		t.Fatalf("process table = %d entries", len(procs))
	}
	victim.Kill(procs[0].PID())

	// Within botTimeout the registry still carries the silent bot.
	runFor(t, r.sched, botTimeout-10*sim.Second)
	if cnc.BotCount() != 1 {
		t.Fatalf("bot reaped before botTimeout: count=%d", cnc.BotCount())
	}
	// After botTimeout (+ one reaper period of slack) it must be gone.
	runFor(t, r.sched, botTimeout/3+10*sim.Second)
	if cnc.BotCount() != 0 {
		t.Fatalf("silent crashed bot still registered: count=%d", cnc.BotCount())
	}
	if lost != 1 {
		t.Fatalf("OnBotLost fired %d times, want 1", lost)
	}
	if got := cnc.TotalRegistered - lost; got != cnc.BotCount() {
		t.Fatalf("counters disagree: registered(%d) - lost(%d) = %d, BotCount = %d",
			cnc.TotalRegistered, lost, got, cnc.BotCount())
	}
}
