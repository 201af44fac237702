package obs

import "net/netip"

// Address families of a packed Endpoint. An IPv6 address with a zone
// is famZoned plus the zone's index in its Zones.
const (
	famNone  uint8 = iota // the zero Addr
	famV4                 // IPv4
	famV6                 // IPv6 without a zone, IPv4-mapped included
	famZoned              // first zoned IPv6 family
)

// Endpoint is a transport endpoint packed without pointers: its
// address's 16 bytes (As16), its port and a family byte. A FlowBuffer
// stores each distinct endpoint once as one, and a flow table keys
// its flows by their ids in that table, so neither the table nor the
// dataset is scanned by the garbage collector. An Endpoint means
// something only with the Zones that packed it.
type Endpoint struct {
	addr [16]byte
	port uint16
	fam  uint8
}

// Zones packs and unpacks Endpoints. It tells up to 253 IPv6 zones
// apart, in first-seen order, and panics on a 254th.
type Zones struct {
	names []string
}

// Pack packs p, interning its zone on first sight.
func (z *Zones) Pack(p netip.AddrPort) Endpoint {
	a := p.Addr()
	return Endpoint{addr: a.As16(), port: p.Port(), fam: z.fam(a)}
}

// fam returns a's family byte.
func (z *Zones) fam(a netip.Addr) uint8 {
	switch {
	case a.Is4():
		return famV4
	case !a.IsValid():
		return famNone
	}
	zone := a.Zone()
	if zone == "" {
		return famV6
	}
	for i, s := range z.names {
		if s == zone {
			return famZoned + uint8(i)
		}
	}
	if len(z.names) > 255-int(famZoned) {
		panic("obs: a Zones tells at most 253 IPv6 zones apart")
	}
	z.names = append(z.names, zone) //simlint:allow allocfree(first sight of an IPv6 zone only; IPv4 and unzoned IPv6 return above)
	return famZoned + uint8(len(z.names)-1)
}

// zone returns e's zone, or "" when its address has none.
func (z *Zones) zone(e *Endpoint) string {
	if e.fam < famZoned {
		return ""
	}
	return z.names[e.fam-famZoned]
}

// unpack rebuilds the endpoint z packed as e.
func (z *Zones) unpack(e *Endpoint) netip.AddrPort {
	var a netip.Addr
	switch e.fam {
	case famV4:
		a = netip.AddrFrom4([4]byte(e.addr[12:]))
	case famV6:
		a = netip.AddrFrom16(e.addr)
	case famNone:
	default:
		a = netip.AddrFrom16(e.addr).WithZone(z.zone(e))
	}
	return netip.AddrPortFrom(a, e.port)
}

// Holds reports whether src and dst, which z packed, are p and q. It
// compares in place and builds nothing: the ports, then the
// addresses, two IPv4 ones by their 4 bytes.
func (z *Zones) Holds(src, dst *Endpoint, p, q *netip.AddrPort) bool {
	if src.port != p.Port() || dst.port != q.Port() {
		return false
	}
	a, b := p.Addr(), q.Addr()
	if src.fam == famV4 && dst.fam == famV4 {
		return a.Is4() && b.Is4() && a.As4() == [4]byte(src.addr[12:]) && b.As4() == [4]byte(dst.addr[12:])
	}
	return z.hasAddr(src, a) && z.hasAddr(dst, b)
}

// hasAddr reports whether e's address is a: the 16 bytes, then the
// family.
func (z *Zones) hasAddr(e *Endpoint, a netip.Addr) bool {
	if a.As16() != e.addr {
		return false
	}
	switch e.fam {
	case famV4:
		return a.Is4()
	case famV6:
		return a.Is6() && a.Zone() == ""
	case famNone:
		return !a.IsValid()
	}
	return a.Zone() == z.zone(e)
}
