package telnetd

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

type rig struct {
	sched  *sim.Scheduler
	star   *netsim.Star
	engine *container.Engine
}

func newRig(t testing.TB) *rig {
	t.Helper()
	sched := sim.NewScheduler(23)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	return &rig{sched: sched, star: star, engine: container.NewEngine(sched, star)}
}

func (r *rig) deploy(t *testing.T, cfg Config) (*container.Container, *Daemon) {
	t.Helper()
	img := &container.Image{
		Name: "ddosim/bb", Tag: "t", Arch: "x86_64",
		Files:     map[string][]byte{"/bin/telnetd": container.BinaryContent("telnetd", "x86_64")},
		ExecPaths: map[string]bool{"/bin/telnetd": true},
	}
	r.engine.RegisterImage(img)
	c, err := r.engine.Create(img.Ref(), "dev", container.LinkConfig{
		Rate: 500 * netsim.Kbps, Delay: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	d := New(cfg)
	c.Spawn(d)
	return c, d
}

var clientSeq int

// telnetClient drives a scripted session and records the transcript.
func telnetClient(t *testing.T, r *rig, dst netip.AddrPort, lines []string) *strings.Builder {
	t.Helper()
	clientSeq++
	client := r.star.AttachHost(fmt.Sprintf("client-%d", clientSeq), 10*netsim.Mbps, sim.Millisecond, 0)
	var transcript strings.Builder
	sent := 0
	client.DialTCP(dst, func(c *netsim.TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.SetDataHandler(func(data []byte) {
			transcript.Write(data)
			text := transcript.String()
			prompts := strings.Count(text, "login: ") + strings.Count(text, "Password: ") + strings.Count(text, "$ ")
			for sent < len(lines) && prompts > sent {
				_ = c.Send([]byte(lines[sent] + "\n"))
				sent++
			}
		})
	})
	return &transcript
}

func TestSuccessfulLogin(t *testing.T) {
	r := newRig(t)
	c, d := r.deploy(t, Config{Cred: Cred{User: "root", Pass: "xc3511"}})
	dst := netip.AddrPortFrom(c.Node().Addr4(), 23)
	tr := telnetClient(t, r, dst, []string{"root", "xc3511", "echo hi"})
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	out := tr.String()
	if !strings.Contains(out, "BusyBox") {
		t.Fatalf("no shell banner: %q", out)
	}
	if d.Logins != 1 {
		t.Fatalf("logins = %d", d.Logins)
	}
	// Shell prompt returned after the command.
	if strings.Count(out, "$ ") < 2 {
		t.Fatalf("command did not complete: %q", out)
	}
}

func TestWrongPasswordRetriesThenDrops(t *testing.T) {
	r := newRig(t)
	c, d := r.deploy(t, Config{Cred: Cred{User: "root", Pass: "secret"}})
	dst := netip.AddrPortFrom(c.Node().Addr4(), 23)
	tr := telnetClient(t, r, dst, []string{"root", "bad1", "root", "bad2", "root", "bad3"})
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	out := tr.String()
	if strings.Contains(out, "BusyBox") {
		t.Fatal("shell granted with wrong password")
	}
	if got := strings.Count(out, "Login incorrect"); got != maxAttempts {
		t.Fatalf("incorrect notices = %d, want %d", got, maxAttempts)
	}
	if d.Logins != 0 || d.LoginAttempts != maxAttempts {
		t.Fatalf("logins=%d attempts=%d", d.Logins, d.LoginAttempts)
	}
}

func TestStrongCredDefaultsAndCallbacks(t *testing.T) {
	r := newRig(t)
	c, d := r.deploy(t, Config{})
	dst := netip.AddrPortFrom(c.Node().Addr4(), 23)
	// The whole Mirai dictionary must fail against StrongCred.
	for _, cred := range MiraiDictionary[:4] {
		telnetClient(t, r, dst, []string{cred.User, cred.Pass})
	}
	if err := r.sched.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if d.Logins != 0 {
		t.Fatal("dictionary cracked the strong credential")
	}
	// And the strong credential itself works.
	tr := telnetClient(t, r, dst, []string{StrongCred.User, StrongCred.Pass})
	if err := r.sched.Run(r.sched.Now() + sim.Minute); err != nil {
		t.Fatal(err)
	}
	if d.Logins != 1 || !strings.Contains(tr.String(), "BusyBox") {
		t.Fatalf("strong login failed: logins=%d", d.Logins)
	}
}

func TestShellRunsContainerCommands(t *testing.T) {
	r := newRig(t)
	c, _ := r.deploy(t, Config{Cred: Cred{User: "u", Pass: "p"}})
	c.FS().Write("/tmp/junk", []byte("x"))
	dst := netip.AddrPortFrom(c.Node().Addr4(), 23)
	telnetClient(t, r, dst, []string{"u", "p", "rm /tmp/junk", "exit"})
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if c.FS().Exists("/tmp/junk") {
		t.Fatal("telnet shell command did not execute")
	}
}

func TestShellReportsErrors(t *testing.T) {
	r := newRig(t)
	c, _ := r.deploy(t, Config{Cred: Cred{User: "u", Pass: "p"}})
	dst := netip.AddrPortFrom(c.Node().Addr4(), 23)
	tr := telnetClient(t, r, dst, []string{"u", "p", "rm /no/such/file"})
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.String(), "sh: ") {
		t.Fatalf("shell error not surfaced: %q", tr.String())
	}
}

func TestDictionaryQuality(t *testing.T) {
	if len(MiraiDictionary) < 10 {
		t.Fatalf("dictionary has %d entries", len(MiraiDictionary))
	}
	seen := map[Cred]bool{}
	for _, c := range MiraiDictionary {
		if c.User == "" || c.Pass == "" {
			t.Fatalf("empty credential %+v", c)
		}
		if seen[c] {
			t.Fatalf("duplicate credential %+v", c)
		}
		seen[c] = true
		if c == StrongCred {
			t.Fatal("strong credential appears in the dictionary")
		}
	}
}

func TestFactoryAndName(t *testing.T) {
	b := New(Config{})
	if b.Name() != "telnetd" {
		t.Fatalf("name = %q", b.Name())
	}
}
