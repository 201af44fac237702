package container

import (
	"strings"
	"testing"

	"ddosim/internal/netsim"
	"ddosim/internal/shttp"
	"ddosim/internal/sim"
)

// srcTest labels the events this package's tests schedule.
var srcTest = sim.NewSource("test")

func TestShellRecursionLimit(t *testing.T) {
	// A script that curls itself: the nested-interpreter depth limit
	// must stop the loop.
	r := newRig(t)
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return &stubBehavior{name: "testd"} })
	r.engine.RegisterImage(devImage("x86_64"))
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	fs := r.star.AttachHost("fs", 10*netsim.Mbps, sim.Millisecond, 0)
	srv, err := shttp.NewServer(fs, 80)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + fs.Addr4().String() + "/loop.sh"
	srv.Handle("/loop.sh", []byte("curl -s "+url+" | sh\n"))

	var shellErr error
	done := false
	c.RunShell("curl -s "+url+" | sh", func(err error) { done, shellErr = true, err })
	if err := r.sched.Run(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("self-referential script never terminated")
	}
	if shellErr == nil || !strings.Contains(shellErr.Error(), "recursion") {
		t.Fatalf("err = %v, want recursion limit", shellErr)
	}
}

func TestShellAbortsWhenContainerStops(t *testing.T) {
	r := newRig(t)
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return &stubBehavior{name: "testd"} })
	r.engine.RegisterImage(devImage("x86_64"))
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	var shellErr error
	done := false
	c.RunShell("sleep 30\necho never", func(err error) { done, shellErr = true, err })
	r.sched.Schedule(5*sim.Second, srcTest, c.Stop)
	if err := r.sched.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !done || shellErr == nil {
		t.Fatalf("script survived container stop: done=%v err=%v", done, shellErr)
	}
}

func TestShellCurlOutputFlagErrors(t *testing.T) {
	r := newRig(t)
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return &stubBehavior{name: "testd"} })
	r.engine.RegisterImage(devImage("x86_64"))
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	var shellErr error
	c.RunShell("curl -s http://10.0.0.1/x -o", func(err error) { shellErr = err })
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if shellErr == nil || !strings.Contains(shellErr.Error(), "-o needs a file") {
		t.Fatalf("err = %v", shellErr)
	}
}

func TestImageRefAndEngineAccessors(t *testing.T) {
	r := newRig(t)
	img := devImage("x86_64")
	r.engine.RegisterImage(img)
	if img.Ref() != "ddosim/dev-test:1.0" {
		t.Fatalf("Ref = %q", img.Ref())
	}
	got, ok := r.engine.ImageByRef("ddosim/dev-test:1.0")
	if !ok || got != img {
		t.Fatal("ImageByRef")
	}
	if _, ok := r.engine.ImageByRef("nope"); ok {
		t.Fatal("missing image resolved")
	}
	if r.engine.Sched() != r.sched || r.engine.Star() != r.star {
		t.Fatal("engine accessors")
	}
	if img.SizeBytes() <= img.ExtraBytes {
		t.Fatalf("SizeBytes = %d", img.SizeBytes())
	}
}

func TestProcessGuardsWhenDead(t *testing.T) {
	r := newRig(t)
	stub := &stubBehavior{name: "testd"}
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return stub })
	r.engine.RegisterImage(devImage("x86_64"))
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	p := stub.lastProc
	c.Kill(p.PID())
	if _, err := p.ListenTCP(99, nil); err == nil {
		t.Fatal("dead process opened a listener")
	}
	if _, err := p.BindUDP(99, nil); err == nil {
		t.Fatal("dead process bound a socket")
	}
}

func TestProcessExit(t *testing.T) {
	r := newRig(t)
	stub := &stubBehavior{name: "testd"}
	r.engine.RegisterBinary("testd", func(args []string) Behavior { return stub })
	r.engine.RegisterImage(devImage("x86_64"))
	c, _ := r.engine.Create("ddosim/dev-test:1.0", "dev", r.link())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	stub.lastProc.Exit(7)
	if stub.lastProc.Alive() {
		t.Fatal("process alive after Exit")
	}
	if len(c.Procs()) != 0 {
		t.Fatal("process table not empty")
	}
	if stub.stopped != 1 {
		t.Fatal("behavior Stop not invoked on Exit")
	}
}
