package procvm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Perm is a bitset of region permissions.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// String renders the permissions rwx-style.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Sparse backing: a region holds only the 4 KiB pages that have been
// written, in a short list sorted by page index, and untouched bytes
// read as zeros. A fleet of processes maps megabytes of text and stack
// per process, but the exploit path writes a few hundred bytes of one
// stack page and never writes text, so Map allocates no backing and an
// exploited process holds one page.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// zeroPage is the read source for unwritten pages.
var zeroPage [pageSize]byte

// page is one written page: its index within the region (offset >>
// pageShift) and its bytes.
type page struct {
	idx  uint64
	data *[pageSize]byte
}

// Region is one contiguous mapping in an address space.
type Region struct {
	Name  string
	Base  uint64
	Size  uint64
	Perm  Perm
	pages []page // written pages, sorted by idx
}

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// End reports the first address past the region.
func (r *Region) End() uint64 { return r.Base + r.Size }

// AddressSpace is a set of non-overlapping regions.
type AddressSpace struct {
	regions []*Region
}

// Map adds a region. Overlapping an existing region is a programming
// error and panics.
func (as *AddressSpace) Map(name string, base, size uint64, perm Perm) *Region {
	for _, r := range as.regions {
		if base < r.End() && r.Base < base+size {
			panic(fmt.Sprintf("procvm: mapping %q overlaps %q", name, r.Name))
		}
	}
	reg := &Region{Name: name, Base: base, Size: size, Perm: perm}
	as.regions = append(as.regions, reg)
	return reg
}

// find reports where page idx sits in the sorted page list, or where it
// would be inserted.
func (r *Region) find(idx uint64) (int, bool) {
	return slices.BinarySearchFunc(r.pages, idx, func(p page, idx uint64) int {
		return cmp.Compare(p.idx, idx)
	})
}

// span returns the bytes from off to the end of off's page, cut at the
// region's end. An unwritten page reads from zeroPage, or, for a
// write, is created first.
func (r *Region) span(off uint64, write bool) []byte {
	idx, po := off>>pageShift, off&(pageSize-1)
	lim := min(pageSize, r.Size-(off-po))
	i, ok := r.find(idx)
	if !ok {
		if !write {
			return zeroPage[po:lim]
		}
		r.pages = slices.Insert(r.pages, i, page{idx: idx, data: new([pageSize]byte)})
	}
	return r.pages[i].data[po:lim]
}

// writeAt copies b into the region starting at off, creating pages as
// it goes, and reports how many bytes fit before the region's end.
func (r *Region) writeAt(off uint64, b []byte) int {
	total := 0
	for len(b) > 0 && off < r.Size {
		n := copy(r.span(off, true), b)
		total += n
		b = b[n:]
		off += uint64(n)
	}
	return total
}

// readAt copies bytes starting at off into dst and reports how many
// fit before the region's end.
func (r *Region) readAt(off uint64, dst []byte) int {
	total := 0
	for len(dst) > 0 && off < r.Size {
		n := copy(dst, r.span(off, false))
		total += n
		dst = dst[n:]
		off += uint64(n)
	}
	return total
}

// RegionAt returns the region containing addr, or nil.
func (as *AddressSpace) RegionAt(addr uint64) *Region {
	for _, r := range as.regions {
		if r.Contains(addr) {
			return r
		}
	}
	return nil
}

// Regions returns the mappings in map order (a copy).
func (as *AddressSpace) Regions() []*Region {
	out := make([]*Region, len(as.regions))
	copy(out, as.regions)
	return out
}

// Write copies b into memory at addr, enforcing write permission and
// region bounds. This is the primitive the vulnerable memcpy uses, so
// its semantics define what an overflow can and cannot reach.
func (as *AddressSpace) Write(addr uint64, b []byte) *Fault {
	for len(b) > 0 {
		r := as.RegionAt(addr)
		if r == nil {
			return &Fault{Kind: FaultUnmapped, Addr: addr}
		}
		if r.Perm&PermWrite == 0 {
			return &Fault{Kind: FaultPerm, Addr: addr}
		}
		off := addr - r.Base
		n := r.writeAt(off, b)
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// Read copies n bytes starting at addr, enforcing read permission.
func (as *AddressSpace) Read(addr uint64, n int) ([]byte, *Fault) {
	out := make([]byte, n)
	if f := as.readInto(addr, out); f != nil {
		return nil, f
	}
	return out, nil
}

// readInto fills dst from memory starting at addr, enforcing read
// permission.
func (as *AddressSpace) readInto(addr uint64, dst []byte) *Fault {
	for len(dst) > 0 {
		r, f := as.readable(addr)
		if f != nil {
			return f
		}
		n := r.readAt(addr-r.Base, dst)
		dst = dst[n:]
		addr += uint64(n)
	}
	return nil
}

// readable returns the region holding addr, or the fault reading it
// raises.
func (as *AddressSpace) readable(addr uint64) (*Region, *Fault) {
	r := as.RegionAt(addr)
	if r == nil {
		return nil, &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	if r.Perm&PermRead == 0 {
		return nil, &Fault{Kind: FaultPerm, Addr: addr}
	}
	return r, nil
}

// ReadU64 reads a little-endian 64-bit word.
func (as *AddressSpace) ReadU64(addr uint64) (uint64, *Fault) {
	var b [8]byte
	if f := as.readInto(addr, b[:]); f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word.
func (as *AddressSpace) WriteU64(addr, v uint64) *Fault {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.Write(addr, b[:])
}

// ReadCString reads a NUL-terminated string of at most max bytes,
// copying straight from each page up to the NUL. A fault at a byte
// before the NUL (and within max) is the read's fault.
func (as *AddressSpace) ReadCString(addr uint64, max int) (string, *Fault) {
	var out []byte
	for max > 0 {
		r, f := as.readable(addr)
		if f != nil {
			return "", f
		}
		off := addr - r.Base
		for max > 0 && off < r.Size {
			b := r.span(off, false)
			b = b[:min(len(b), max)]
			if i := bytes.IndexByte(b, 0); i >= 0 {
				return string(append(out, b[:i]...)), nil
			}
			out = append(out, b...)
			max -= len(b)
			off += uint64(len(b))
		}
		addr = r.Base + off
	}
	return string(out), nil
}
