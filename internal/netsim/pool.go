package netsim

// Packet pooling. The UDP flood is the simulator's hottest producer:
// one datagram per event for the whole attack window. Recycling the
// Packet structs through a free list makes the steady-state flood path
// allocation-free. See the ownership rules on Packet.
// The free list lives on the Network; every node allocates from and
// retires to it.

// packetPoolCap bounds the free list so a burst (a deep drop-tail queue
// draining at once) cannot pin an unbounded number of dead structs.
const packetPoolCap = 4096

// pktPool is one packet free list with its effectiveness counters.
type pktPool struct {
	free   []*Packet
	reused uint64
	allocs uint64
}

func (pp *pktPool) get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		pp.reused++
		p.sanUnpoison()
		p.sanAlloc()
		return p
	}
	pp.allocs++
	p := &Packet{}
	p.sanAlloc()
	return p
}

func (pp *pktPool) put(p *Packet) {
	if p == nil {
		return
	}
	p.sanRelease()
	// The sanitizer state must survive the zeroing: the generation
	// stamp and release site are exactly what the next use-after-release
	// panic needs to report. Zero-cost without the simdebug tag, where
	// sanState is an empty struct.
	san := p.san
	*p = Packet{}
	p.san = san
	p.sanPoison()
	if len(pp.free) < packetPoolCap {
		pp.free = append(pp.free, p)
	}
}

func (pp *pktPool) clone(p *Packet) *Packet {
	p.sanCheck("clonePacket")
	cp := pp.get()
	cp.UID, cp.Proto, cp.Src, cp.Dst, cp.Pad = p.UID, p.Proto, p.Src, p.Dst, p.Pad
	if p.Payload != nil {
		cp.Payload = make([]byte, len(p.Payload)) //simlint:allow allocfree(clone's contract is a deep payload copy; the flood path sends padded packets with nil Payload and never pays this)
		copy(cp.Payload, p.Payload)
	}
	if p.TCP != nil {
		cp.hdr = *p.TCP
		cp.TCP = &cp.hdr
	}
	return cp
}

// PoolStats reports packet free-list effectiveness.
type PoolStats struct {
	// Reused counts allocations served from the free list.
	Reused uint64
	// Allocated counts packets that had to be heap-allocated.
	Allocated uint64
	// Free is the current free-list depth.
	Free int
}

// PoolStats returns the packet free-list counters.
func (w *Network) PoolStats() PoolStats {
	return PoolStats{Reused: w.pp.reused, Allocated: w.pp.allocs, Free: len(w.pp.free)}
}

// AllocPacket returns a zeroed packet, recycled when possible. The
// caller populates it and hands it to Node.SendPacket or NetDevice.Send
// exactly once; ownership transfers with the send (see Packet).
// Plain &Packet{} literals remain valid senders — they simply join the
// pool after their terminal delivery or drop.
func (n *Node) AllocPacket() *Packet { return n.getPacket() }

// ReleasePacket returns an allocated-but-unsent packet to the free
// list: the undo of AllocPacket for callers that populate a packet and
// then abort before the send would have transferred ownership. Sending
// a released packet is a use-after-release (caught by the pktown
// analyzer statically and the simdebug sanitizer at runtime).
func (n *Node) ReleasePacket(p *Packet) { n.putPacket(p) }

func (n *Node) getPacket() *Packet            { return n.net.pp.get() }
func (n *Node) putPacket(p *Packet)           { n.net.pp.put(p) }
func (n *Node) clonePacket(p *Packet) *Packet { return n.net.pp.clone(p) }

// AllocPacket is the network-wide allocator (see Node.AllocPacket).
func (w *Network) AllocPacket() *Packet { return w.getPacket() }

// ReleasePacket is the network-wide undo of AllocPacket (see
// Node.ReleasePacket).
func (w *Network) ReleasePacket(p *Packet) { w.putPacket(p) }

func (w *Network) getPacket() *Packet            { return w.pp.get() }
func (w *Network) putPacket(p *Packet)           { w.pp.put(p) }
func (w *Network) clonePacket(p *Packet) *Packet { return w.pp.clone(p) }

// pktRing is a growable FIFO of packets backed by a circular buffer —
// the storage for a device's egress queue and in-flight window. Push
// and pop are O(1) and steady-state allocation-free; the buffer only
// grows, up to the high-water mark of its queue.
type pktRing struct {
	buf  []*Packet
	head int
	n    int
}

func (r *pktRing) len() int { return r.n }

func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
}

func (r *pktRing) grow() {
	size := 2 * len(r.buf)
	if size < 8 {
		size = 8
	}
	nb := make([]*Packet, size) //simlint:allow allocfree(ring doubling is amortized O(1) per enqueue and the ring never shrinks, so a warmed queue stops growing)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = nb, 0
}

func (r *pktRing) peek() *Packet { return r.buf[r.head] }

func (r *pktRing) pop() *Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p
}
