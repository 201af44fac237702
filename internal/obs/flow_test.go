package obs

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

func mkRec(startUS, endUS int64, label string, pkts, bytes uint64) FlowRecord {
	return FlowRecord{
		StartUS: startUS, EndUS: endUS, Proto: "udp",
		Src:     netip.MustParseAddrPort("10.0.0.2:4000"),
		Dst:     netip.MustParseAddrPort("10.0.0.1:9999"),
		Packets: pkts, Bytes: bytes, Label: label, Reason: FlowIdle,
	}
}

// add hands r to b as a flow table would: its endpoints as ids from
// b's endpoint table.
func add(b *FlowBuffer, r FlowRecord) {
	b.Add(Flow{
		StartUS: r.StartUS, EndUS: r.EndUS, Packets: r.Packets, Bytes: r.Bytes,
		Src: b.EndpointID(r.Src), Dst: b.EndpointID(r.Dst), TCPFlags: r.TCPFlags,
		Proto: r.Proto, Label: r.Label, Reason: r.Reason,
	})
}

// TestFlowBufferAccumulatesCopies: the buffer keeps what each record
// held when it was added, in order, so a caller may reuse its record
// value.
func TestFlowBufferAccumulatesCopies(t *testing.T) {
	var b FlowBuffer
	r := mkRec(0, 10, "benign", 1, 100)
	add(&b, r)
	r.Packets, r.Label = 99, "attack" // the buffer must have copied
	add(&b, r)
	add(&b, mkRec(5, 20, "attack", 2, 200))

	recs := b.Records()
	if b.Len() != 3 || len(recs) != 3 {
		t.Fatalf("len=%d records=%d, want 3/3", b.Len(), len(recs))
	}
	if recs[0] != mkRec(0, 10, "benign", 1, 100) {
		t.Fatalf("first record changed after Add: %+v", recs[0])
	}
	if recs[1].Packets != 99 || recs[1].Label != "attack" || recs[2].StartUS != 5 {
		t.Fatalf("records out of order: %+v", recs)
	}
}

func TestFlowBufferStats(t *testing.T) {
	var b FlowBuffer
	add(&b, mkRec(0, 10, "benign", 1, 100))
	add(&b, mkRec(0, 10, "attack", 4, 400))
	add(&b, mkRec(0, 10, "attack", 6, 600))
	s := b.Stats()
	if s.Flows != 3 || s.Packets != 11 || s.Bytes != 1100 {
		t.Fatalf("stats %+v", s)
	}
	if len(s.Labels) != 2 || s.Labels[0].Label != "attack" || s.Labels[1].Label != "benign" {
		t.Fatalf("labels not sorted: %+v", s.Labels)
	}
	if s.Labels[0].Flows != 2 || s.Labels[0].Packets != 10 || s.Labels[0].Bytes != 1000 {
		t.Fatalf("attack class %+v", s.Labels[0])
	}
}

func TestFlowBufferWriteCSV(t *testing.T) {
	var b FlowBuffer
	add(&b, mkRec(1_000_000, 2_000_000, "attack", 3, 300))
	var sb strings.Builder
	if err := b.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := FlowCSVHeader + "\n" +
		"1000000,2000000,udp,10.0.0.2:4000,10.0.0.1:9999,3,300,0,attack,idle\n"
	if sb.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestFlowBufferNilSafe(t *testing.T) {
	var b *FlowBuffer
	add(b, mkRec(0, 1, "x", 1, 1))
	if b.Len() != 0 || b.Records() != nil {
		t.Fatal("nil buffer should be inert")
	}
	if s := b.Stats(); s.Flows != 0 {
		t.Fatalf("nil stats %+v", s)
	}
	var sb strings.Builder
	if err := b.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != FlowCSVHeader+"\n" {
		t.Fatalf("nil csv %q", sb.String())
	}
}

// TestFlowBufferLayout pins the buffer's pointer-free layout: the
// garbage collector never scans its rows or its endpoint table, and a
// record costs a 48-byte row (FlowRecord is 152 bytes with five
// pointers) and a distinct endpoint a 20-byte Endpoint.
func TestFlowBufferLayout(t *testing.T) {
	for _, c := range []struct {
		v    any
		size uintptr
	}{{flowRow{}, 48}, {Endpoint{}, 20}, {[flowChunk]flowRow{}, 48 * flowChunk}} {
		typ := reflect.TypeOf(c.v)
		if f := pointerField(typ); f != "" {
			t.Errorf("%s holds a pointer in %s; flow storage must be pointer-free", typ, f)
		}
		if typ.Size() != c.size {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", typ, typ.Size(), c.size)
		}
	}
}

// TestEndpointHolds: a pair of endpoints packed from two addresses
// holds those two alone, across addresses whose 16 bytes collide
// (IPv4, IPv4-mapped, zoned and unzoned IPv6, the zero Addr and ::),
// and each unpacks to its address.
func TestEndpointHolds(t *testing.T) {
	addrs := []netip.Addr{
		{},
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("::ffff:10.0.0.1"),
		netip.MustParseAddr("::ffff:10.0.0.1%eth0"),
		netip.MustParseAddr("fe80::1"),
		netip.MustParseAddr("fe80::1%eth0"),
		netip.MustParseAddr("fe80::1%eth1"),
		netip.MustParseAddr("::"),
		netip.MustParseAddr("0.0.0.0"),
	}
	var z Zones
	eps := make([]Endpoint, len(addrs))
	for i, a := range addrs {
		p := netip.AddrPortFrom(a, 7)
		eps[i] = z.Pack(p)
		if got := z.unpack(&eps[i]); got != p {
			t.Errorf("unpack(Pack(%v)) = %v", p, got)
		}
	}
	for i := range addrs {
		for j := range addrs {
			for k, a := range addrs {
				for l, b := range addrs {
					p, q := netip.AddrPortFrom(a, 7), netip.AddrPortFrom(b, 7)
					if got, want := z.Holds(&eps[i], &eps[j], &p, &q), i == k && j == l; got != want {
						t.Errorf("Holds(%v, %v, %v, %v) = %v, want %v", addrs[i], addrs[j], a, b, got, want)
					}
				}
			}
		}
	}
	p, q := netip.AddrPortFrom(addrs[1], 7), netip.AddrPortFrom(addrs[1], 8)
	if z.Holds(&eps[1], &eps[1], &p, &q) || z.Holds(&eps[1], &eps[1], &q, &p) {
		t.Error("Holds ignores a port")
	}
}
