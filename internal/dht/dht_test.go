package dht

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// ---------------------------------------------------------------------
// Pure unit tests

func TestXORMetricAndBuckets(t *testing.T) {
	a := DeriveID([]byte("a"))
	b := DeriveID([]byte("b"))
	if a.XOR(a) != (Distance{}) || !a.XOR(a).IsZero() {
		t.Fatal("self-distance must be zero")
	}
	if a.XOR(b) != b.XOR(a) {
		t.Fatal("XOR metric must be symmetric")
	}
	if BucketIndex(a, a) != -1 {
		t.Fatal("identical IDs have no bucket")
	}
	// Flipping exactly the top bit lands in the top bucket; the bottom
	// bit in bucket 0.
	top := a
	top[0] ^= 0x80
	if got := BucketIndex(a, top); got != IDBits-1 {
		t.Fatalf("top-bit bucket = %d, want %d", got, IDBits-1)
	}
	bottom := a
	bottom[IDBytes-1] ^= 0x01
	if got := BucketIndex(a, bottom); got != 0 {
		t.Fatalf("bottom-bit bucket = %d, want 0", got)
	}
}

func TestRandomIDInBucketLandsInBucket(t *testing.T) {
	self := DeriveID([]byte("self"))
	seq := byte(0)
	randByte := func() byte { seq += 37; return seq }
	for _, idx := range []int{0, 1, 7, 8, 63, 100, IDBits - 1} {
		got := RandomIDInBucket(self, idx, randByte)
		if bi := BucketIndex(self, got); bi != idx {
			t.Fatalf("bucket %d: generated ID lands in bucket %d", idx, bi)
		}
	}
}

// protoMessages holds one well-formed message of every type.
func protoMessages() []*Message {
	sender := DeriveID([]byte("s"))
	key := Key("cmd")
	c1 := Contact{ID: DeriveID([]byte("c1")), Addr: netip.MustParseAddrPort("10.0.0.1:6881")}
	c2 := Contact{ID: DeriveID([]byte("c2")), Addr: netip.MustParseAddrPort("[2001:db8::2]:6881")}
	return []*Message{
		{Type: tPing, RPC: 7, Sender: sender},
		{Type: tPong, RPC: 7, Sender: sender},
		{Type: tFindNode, RPC: 9, Sender: sender, Target: key},
		{Type: tFindValue, RPC: 10, Sender: sender, Target: key},
		{Type: tNodes, RPC: 9, Sender: sender, Contacts: []Contact{c1, c2}},
		{Type: tStore, RPC: 11, Sender: sender, Key: key, Seq: 42, Value: []byte("attack-record")},
		{Type: tValue, RPC: 12, Sender: sender, Key: key, Seq: 42, Value: []byte("attack-record")},
		{Type: tStoreOK, RPC: 11, Sender: sender, Key: key},
	}
}

// sameMessage reports whether two messages carry the same fields.
func sameMessage(a, b *Message) bool {
	return a.Type == b.Type && a.RPC == b.RPC && a.Sender == b.Sender &&
		a.Target == b.Target && a.Key == b.Key && a.Seq == b.Seq &&
		bytes.Equal(a.Value, b.Value) && slices.Equal(a.Contacts, b.Contacts)
}

func TestProtoRoundTrip(t *testing.T) {
	for _, m := range protoMessages() {
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("type %d: %v", m.Type, err)
		}
		if !sameMessage(got, m) {
			t.Fatalf("type %d: round trip mismatch: %+v vs %+v", m.Type, got, m)
		}
	}
	if _, err := Decode([]byte{1, 2}); err == nil {
		t.Fatal("short datagram must fail to decode")
	}
	if _, err := Decode((&Message{Type: 99}).Encode()); err == nil {
		t.Fatal("unknown type must fail to decode")
	}
}

// FuzzDecode feeds Decode hostile datagrams, as an overlay peer may
// send: it must never panic, and any message it accepts must re-encode
// to bytes that decode to an equal message and re-encode identically.
func FuzzDecode(f *testing.F) {
	for _, m := range protoMessages() {
		b := m.Encode()
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(append(slices.Clip(b), 0xff, 0x00, 0x10))
	}
	// A contact count larger than the contacts that follow, and a value
	// length larger than the value.
	nodes := protoMessages()[4].Encode()
	nodes[headerLen] = 0xff
	f.Add(nodes)
	store := protoMessages()[5].Encode()
	store[headerLen+IDBytes+8], store[headerLen+IDBytes+9] = 0xff, 0xff
	f.Add(store)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		enc := m.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding of an accepted message does not decode: %v", err)
		}
		if !sameMessage(again, m) {
			t.Fatalf("round trip changed the message: %+v vs %+v", again, m)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("re-encoding is not stable")
		}
	})
}

func TestTableLRUAndEviction(t *testing.T) {
	self := ID{} // zero ID makes bucket geometry easy to steer
	tab := NewTable(self, 2)

	// Three contacts in the same (top) bucket: high bit set.
	mk := func(b byte) Contact {
		var id ID
		id[0] = 0x80 | b
		return Contact{ID: id, Addr: netip.MustParseAddrPort(fmt.Sprintf("10.0.0.%d:6881", b+1))}
	}
	c1, c2, c3 := mk(1), mk(2), mk(3)
	if res, _ := tab.Seen(c1); res != SeenAdded {
		t.Fatal("c1 not added")
	}
	if res, _ := tab.Seen(c2); res != SeenAdded {
		t.Fatal("c2 not added")
	}
	res, oldest := tab.Seen(c3)
	if res != SeenFull || oldest.ID != c1.ID {
		t.Fatalf("full bucket: res=%v oldest=%v, want SeenFull/c1", res, oldest.ID)
	}
	// Refreshing c1 moves it to the fresh end; now c2 is the candidate.
	if res, _ := tab.Seen(c1); res != SeenAdded {
		t.Fatal("refreshing a resident must succeed")
	}
	if _, oldest := tab.Seen(c3); oldest.ID != c2.ID {
		t.Fatalf("after LRU refresh the candidate should be c2, got %v", oldest.ID)
	}
	// Evict c2 for c3.
	tab.Evict(c2.ID, c3)
	if tab.Len() != 2 {
		t.Fatalf("table len = %d, want 2", tab.Len())
	}
	got := tab.Closest(self, 4)
	if len(got) != 2 {
		t.Fatalf("closest returned %d contacts", len(got))
	}
	for _, c := range got {
		if c.ID == c2.ID {
			t.Fatal("evicted contact still present")
		}
	}
	// Closest ordering is by XOR distance.
	if d1, d2 := got[0].ID.XOR(self), got[1].ID.XOR(self); d2.Less(d1) {
		t.Fatal("Closest not sorted by distance")
	}
	tab.Remove(c3.ID)
	if tab.Len() != 1 {
		t.Fatalf("after Remove len = %d, want 1", tab.Len())
	}
	if res, _ := tab.Seen(Contact{ID: self}); res != SeenSelf {
		t.Fatal("self must never enter the table")
	}
}

// ---------------------------------------------------------------------
// Overlay integration tests (real processes on a simulated star)

// dhtDaemon hosts a Node inside a container process.
type dhtDaemon struct {
	cfg  Config
	node *Node
}

func (d *dhtDaemon) Name() string { return "dhtd" }
func (d *dhtDaemon) Start(p *container.Process) {
	d.node = New(p, d.cfg)
	if err := d.node.Start(p.Node().Addr4()); err != nil {
		panic(err)
	}
}
func (d *dhtDaemon) Stop(*container.Process) { d.node.Close() }

type overlay struct {
	sched *sim.Scheduler
	nodes []*Node
	conts []*container.Container
}

// runFor advances the scheduler by d from its current clock.
func (o *overlay) runFor(t *testing.T, d sim.Time) {
	t.Helper()
	if err := o.sched.Run(o.sched.Now() + d); err != nil {
		t.Fatal(err)
	}
}

func newOverlay(t *testing.T, seed int64, n int, cfg Config) *overlay {
	t.Helper()
	sched := sim.NewScheduler(seed)
	star := netsim.NewStar(netsim.New(sched))
	eng := container.NewEngine(sched, star)
	o := &overlay{sched: sched}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("peer-%d", i)
		img := &container.Image{
			Name: "ddosim/" + name, Tag: "t", Arch: "x86_64",
			Files: map[string][]byte{}, ExecPaths: map[string]bool{},
		}
		eng.RegisterImage(img)
		c, err := eng.Create("ddosim/"+name+":t", name,
			container.LinkConfig{Rate: 10 * netsim.Mbps, Delay: sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		d := &dhtDaemon{cfg: cfg}
		c.Spawn(d)
		o.nodes = append(o.nodes, d.node)
		o.conts = append(o.conts, c)
	}
	// Everyone bootstraps off node 0, staggered a little.
	boot := []netip.AddrPort{o.nodes[0].Addr()}
	for i := 1; i < n; i++ {
		node := o.nodes[i]
		sched.Schedule(sim.Time(i)*100*sim.Millisecond, func() {
			node.Join(boot, nil)
		})
	}
	return o
}

func TestJoinPutGetAcrossOverlay(t *testing.T) {
	o := newOverlay(t, 21, 12, Config{})
	o.runFor(t, 30*sim.Second)

	for i, n := range o.nodes {
		if n.TableLen() == 0 {
			t.Fatalf("node %d has an empty routing table after join", i)
		}
	}

	// Publish from node 3, resolve from node 9.
	key := Key("cmd")
	acked := -1
	o.nodes[3].Put(key, []byte("attack v1"), 1, func(a int) { acked = a })
	o.runFor(t, 10*sim.Second)
	if acked <= 0 {
		t.Fatalf("Put acked by %d replicas, want > 0", acked)
	}

	var gotVal string
	var gotSeq uint64
	found := false
	o.nodes[9].Get(key, func(v []byte, seq uint64, ok bool) {
		gotVal, gotSeq, found = string(v), seq, ok
	})
	o.runFor(t, 10*sim.Second)
	if !found || gotVal != "attack v1" || gotSeq != 1 {
		t.Fatalf("Get = (%q, %d, %v), want (attack v1, 1, true)", gotVal, gotSeq, found)
	}

	// A fresher sequence supersedes; a stale one is refused.
	o.nodes[3].Put(key, []byte("attack v2"), 2, nil)
	o.runFor(t, 10*sim.Second)
	holder := o.nodes[9]
	if !holder.StoreLocal(key, []byte("attack v2"), 2) {
		t.Fatal("equal-or-newer seq must be accepted")
	}
	if holder.StoreLocal(key, []byte("stale"), 1) {
		t.Fatal("stale seq must be refused")
	}
	if v, seq, ok := holder.Local(key); !ok || string(v) != "attack v2" || seq != 2 {
		t.Fatalf("local record = (%q, %d, %v) after supersede", v, seq, ok)
	}
}

func TestGetPathCachesRecord(t *testing.T) {
	o := newOverlay(t, 21, 12, Config{})
	o.runFor(t, 30*sim.Second)

	key := Key("cmd")
	o.nodes[3].Put(key, []byte("rec"), 1, nil)
	o.runFor(t, 10*sim.Second)

	before := 0
	for _, n := range o.nodes {
		if _, _, ok := n.Local(key); ok {
			before++
		}
	}
	// Every node polls once; path caching should spread copies beyond
	// the original K-closest replica set.
	for _, n := range o.nodes {
		n.Get(key, nil)
	}
	o.runFor(t, 20*sim.Second)
	after := 0
	for _, n := range o.nodes {
		if _, _, ok := n.Local(key); ok {
			after++
		}
	}
	if after <= before {
		t.Fatalf("path caching did not spread the record: %d -> %d holders", before, after)
	}
}

func TestOverlaySurvivesBootstrapDeath(t *testing.T) {
	o := newOverlay(t, 21, 12, Config{RefreshPeriod: 20 * sim.Second})
	o.runFor(t, 30*sim.Second)

	key := Key("cmd")
	o.nodes[3].Put(key, []byte("persisted"), 1, nil)
	o.runFor(t, 10*sim.Second)

	// Kill the bootstrap node outright — the takedown analogue.
	o.conts[0].Node().DefaultDevice().SetUp(false)

	o.runFor(t, 2*sim.Minute)
	found := false
	o.nodes[7].Get(key, func(v []byte, _ uint64, ok bool) { found = ok && string(v) == "persisted" })
	o.runFor(t, 10*sim.Second)
	if !found {
		t.Fatal("record unreachable after bootstrap death")
	}
}

func TestOverlayDeterministicAcrossRuns(t *testing.T) {
	sig := func() string {
		o := newOverlay(t, 21, 10, Config{})
		o.runFor(t, 30*sim.Second)
		key := Key("cmd")
		o.nodes[2].Put(key, []byte("det"), 1, nil)
		o.runFor(t, 10*sim.Second)
		for _, n := range o.nodes {
			n.Get(key, nil)
		}
		o.runFor(t, 10*sim.Second)
		s := ""
		for i, n := range o.nodes {
			_, _, held := n.Local(key)
			s += fmt.Sprintf("%d:%d:%d:%d:%v;", i, n.TableLen(), n.RPCsSent, n.RPCsTimedOut, held)
		}
		return s
	}
	a, b := sig(), sig()
	if a != b {
		t.Fatalf("same-seed overlay runs diverged:\n%s\n%s", a, b)
	}
}
