package netsim

import (
	"errors"
	"fmt"
	"net/netip"

	"ddosim/internal/sim"
)

// The TCP implemented here is deliberately minimal but real: three-way
// handshake, byte-oriented sequence numbers, cumulative ACKs, a fixed
// window with go-back-N retransmission, FIN/RST teardown. It carries the
// C&C channel, the telnet admin session, and HTTP downloads; under
// churn its retransmission timeout is what detects dead bots, so losing
// precision here would distort the experiments.

// TCP tuning constants.
const (
	tcpMSS        = 1400 // max segment payload bytes
	tcpWindowSegs = 32   // fixed window, in segments
	tcpRTO        = 200 * sim.Millisecond
	tcpMaxRetries = 6
)

// Errors surfaced through close handlers and dial callbacks.
var (
	ErrConnReset   = errors.New("netsim: connection reset")
	ErrConnTimeout = errors.New("netsim: connection timed out")
	ErrConnRefused = errors.New("netsim: connection refused")
	ErrConnClosed  = errors.New("netsim: connection closed")
)

type connKey struct {
	local  netip.AddrPort
	remote netip.AddrPort
}

type tcpHost struct {
	node      *Node
	listeners map[uint16]*TCPListener
	conns     map[connKey]*TCPConn
	// localPorts refcounts conns per local endpoint so ephemeral-port
	// allocation is an O(1) lookup instead of a scan over the conn map
	// — scanning was both O(n) per dial and a map-iteration order
	// hazard on the simulation's hot path.
	localPorts map[netip.AddrPort]int
}

func newTCPHost(n *Node) *tcpHost {
	return &tcpHost{
		node:       n,
		listeners:  make(map[uint16]*TCPListener),
		conns:      make(map[connKey]*TCPConn),
		localPorts: make(map[netip.AddrPort]int),
	}
}

// addConn registers a connection in the demux table, keeping the
// local-endpoint refcount in step.
func (h *tcpHost) addConn(c *TCPConn) {
	h.conns[c.key] = c //simlint:allow allocfree(demux-table insert runs once per accepted connection, not per segment; the SYN-flood path answers with a pooled RST and never registers a conn)
	h.localPorts[c.key.local]++
}

// removeConn is the inverse of addConn; removing an unknown key is a
// no-op.
func (h *tcpHost) removeConn(c *TCPConn) {
	if _, ok := h.conns[c.key]; !ok {
		return
	}
	delete(h.conns, c.key)
	if h.localPorts[c.key.local] <= 1 {
		delete(h.localPorts, c.key.local)
	} else {
		h.localPorts[c.key.local]-- //simlint:allow allocfree(decrement of an existing key on per-connection teardown; never grows the map and never runs per segment)
	}
}

// TCPListener accepts inbound connections on a port.
type TCPListener struct {
	host   *tcpHost
	port   uint16
	accept func(*TCPConn)
	closed bool
}

// ListenTCP starts accepting TCP connections on port; accept runs once
// per connection after the handshake completes.
func (n *Node) ListenTCP(port uint16, accept func(*TCPConn)) (*TCPListener, error) {
	if port == 0 {
		return nil, fmt.Errorf("netsim: node %s: cannot listen on port 0", n.name)
	}
	if _, busy := n.tcp.listeners[port]; busy {
		return nil, fmt.Errorf("netsim: node %s: TCP port %d already listening", n.name, port)
	}
	l := &TCPListener{host: n.tcp, port: port, accept: accept}
	n.tcp.listeners[port] = l
	return l, nil
}

// Close stops accepting new connections; existing ones are unaffected.
func (l *TCPListener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.host.listeners, l.port)
}

type tcpState uint8

const (
	stateSynSent tcpState = iota + 1
	stateSynRcvd
	stateEstablished
	stateFinSent
	stateClosed
)

// DialCallback reports the outcome of a DialTCP: on success err is nil
// and c is established; on failure c is the defunct connection object.
type DialCallback func(c *TCPConn, err error)

// TCPConn is one endpoint of a simulated TCP connection.
type TCPConn struct {
	host  *tcpHost
	sched *sim.Scheduler
	key   connKey
	state tcpState

	// Send side.
	sndUna    uint32 // oldest unacknowledged sequence number
	sndNxt    uint32 // next sequence number to send
	sendBuf   []byte // bytes [sndUna, sndUna+len) not yet fully acked
	finAt     uint32 // sequence number of our FIN, valid when finQueued
	finQueued bool
	finSent   bool

	// Receive side.
	rcvNxt       uint32
	remoteFinned bool

	// Timers. rtoFn is the retransmission callback bound once on first
	// arm so that re-arming — a per-segment operation on the send path
	// — never allocates a fresh method-value closure.
	rtoEvent sim.EventID
	rtoFn    func()
	rtoArmed bool
	retries  int

	// Callbacks.
	onDial  DialCallback
	onData  func([]byte)
	onClose func(error)

	closedErr error
}

// DialTCP opens a connection to dst. The callback fires exactly once:
// with a nil error when established, or with the failure reason.
func (n *Node) DialTCP(dst netip.AddrPort, cb DialCallback) *TCPConn {
	local := n.localAddrPortFor(dst.Addr())
	c := &TCPConn{
		host:   n.tcp,
		sched:  n.sched,
		key:    connKey{local: local, remote: dst},
		state:  stateSynSent,
		onDial: cb,
	}
	iss := uint32(n.sched.RNG().Int63())
	c.sndUna, c.sndNxt, c.finAt = iss, iss+1, 0
	n.tcp.addConn(c)
	c.sendSegment(FlagSYN, iss, 0, nil)
	c.armRTO()
	return c
}

func (n *Node) localAddrPortFor(dst netip.Addr) netip.AddrPort {
	var a netip.Addr
	if dst.Is6() {
		a = n.Addr6()
	} else {
		a = n.Addr4()
	}
	for p := uint16(32768); ; p++ {
		candidate := netip.AddrPortFrom(a, p)
		if n.tcp.localPorts[candidate] == 0 {
			return candidate
		}
	}
}

// LocalAddr reports the connection's local endpoint.
func (c *TCPConn) LocalAddr() netip.AddrPort { return c.key.local }

// RemoteAddr reports the connection's remote endpoint.
func (c *TCPConn) RemoteAddr() netip.AddrPort { return c.key.remote }

// Established reports whether the connection completed its handshake
// and has not closed.
func (c *TCPConn) Established() bool { return c.state == stateEstablished }

// SetDataHandler registers the callback invoked with in-order received
// bytes.
func (c *TCPConn) SetDataHandler(h func([]byte)) { c.onData = h }

// SetCloseHandler registers the callback invoked once when the
// connection ends; err is nil for a clean remote close.
func (c *TCPConn) SetCloseHandler(h func(error)) { c.onClose = h }

// Send queues data for reliable in-order delivery.
func (c *TCPConn) Send(data []byte) error {
	if c.state != stateEstablished && c.state != stateSynRcvd && c.state != stateSynSent {
		return ErrConnClosed
	}
	if c.finQueued {
		return ErrConnClosed
	}
	c.sendBuf = append(c.sendBuf, data...)
	c.trySend()
	return nil
}

// Close performs an orderly shutdown after all buffered data is
// delivered.
func (c *TCPConn) Close() {
	if c.state == stateClosed || c.finQueued {
		return
	}
	c.finQueued = true
	c.trySend()
}

// Abort resets the connection immediately.
func (c *TCPConn) Abort() {
	if c.state == stateClosed {
		return
	}
	c.sendSegment(FlagRST, c.sndNxt, c.rcvNxt, nil)
	c.teardown(ErrConnReset)
}

func (c *TCPConn) node() *Node { return c.host.node }

func (c *TCPConn) sendSegment(flags TCPFlags, seq, ack uint32, payload []byte) {
	n := c.node()
	pkt := n.getPacket()
	pkt.UID = n.NextUID()
	pkt.Proto = ProtoTCP
	pkt.Src = c.key.local
	pkt.Dst = c.key.remote
	pkt.Payload = payload
	pkt.SetTCP(flags, seq, ack)
	n.SendPacket(pkt)
}

// trySend pushes new segments while the window allows, then the FIN.
func (c *TCPConn) trySend() {
	if c.state != stateEstablished {
		return
	}
	window := uint32(tcpWindowSegs * tcpMSS)
	for {
		inFlight := c.sndNxt - c.sndUna
		sent := int(c.sndNxt - c.sndUna) // bytes of sendBuf already sent
		if c.finSent && c.finQueued {
			sent-- // FIN consumed one sequence number
		}
		if sent < 0 {
			sent = 0
		}
		pending := len(c.sendBuf) - sent
		if pending > 0 && inFlight < window {
			n := pending
			if n > tcpMSS {
				n = tcpMSS
			}
			if uint32(n) > window-inFlight {
				n = int(window - inFlight)
			}
			seg := make([]byte, n) //simlint:allow allocfree(per-segment payload copy of the stream path; flood traffic crafts header-only segments and bypasses trySend entirely)
			copy(seg, c.sendBuf[sent:sent+n])
			c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, seg)
			c.sndNxt += uint32(n)
			c.armRTO()
			continue
		}
		if pending == 0 && c.finQueued && !c.finSent {
			c.finAt = c.sndNxt
			c.sendSegment(FlagFIN|FlagACK, c.sndNxt, c.rcvNxt, nil)
			c.sndNxt++
			c.finSent = true
			c.state = stateFinSent
			c.armRTO()
		}
		return
	}
}

func (c *TCPConn) armRTO() {
	if c.rtoArmed {
		return
	}
	if c.rtoFn == nil {
		c.rtoFn = c.onRTO //simlint:allow allocfree(RTO callback binds once per connection on first arm, then every re-arm reuses it)
	}
	c.rtoArmed = true
	backoff := sim.Time(1) << uint(c.retries)
	c.rtoEvent = c.sched.Schedule(tcpRTO*backoff, c.rtoFn)
}

func (c *TCPConn) cancelRTO() {
	if c.rtoArmed {
		c.sched.Cancel(c.rtoEvent)
		c.rtoArmed = false
	}
}

func (c *TCPConn) onRTO() {
	c.rtoArmed = false
	if c.state == stateClosed {
		return
	}
	c.retries++
	if c.retries > tcpMaxRetries {
		err := ErrConnTimeout
		if c.state == stateSynSent {
			err = ErrConnRefused
		}
		c.teardown(err)
		return
	}
	switch c.state {
	case stateSynSent:
		c.sendSegment(FlagSYN, c.sndUna, 0, nil)
	case stateSynRcvd:
		c.sendSegment(FlagSYN|FlagACK, c.sndUna, c.rcvNxt, nil)
	default:
		// Go-back-N: retransmit the oldest unacked segment.
		c.retransmitOldest()
	}
	c.armRTO()
}

func (c *TCPConn) retransmitOldest() {
	unackedData := len(c.sendBuf)
	if unackedData > 0 {
		n := unackedData
		if n > tcpMSS {
			n = tcpMSS
		}
		seg := make([]byte, n)
		copy(seg, c.sendBuf[:n])
		c.sendSegment(FlagACK, c.sndUna, c.rcvNxt, seg)
		return
	}
	if c.finSent {
		c.sendSegment(FlagFIN|FlagACK, c.finAt, c.rcvNxt, nil)
	}
}

func (c *TCPConn) teardown(err error) {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	c.closedErr = err
	c.cancelRTO()
	c.host.removeConn(c)
	if c.onDial != nil {
		cb := c.onDial
		c.onDial = nil
		if err != nil {
			cb(c, err)
			return
		}
	}
	if c.onClose != nil {
		c.onClose(err)
	}
}

// deliver is the host demultiplexer for inbound TCP segments.
func (h *tcpHost) deliver(pkt *Packet) {
	if pkt.TCP == nil {
		h.node.localDrops++
		return
	}
	key := connKey{local: pkt.Dst, remote: pkt.Src}
	if c, ok := h.conns[key]; ok {
		c.handleSegment(pkt)
		return
	}
	hdr := pkt.TCP
	if hdr.Flags&FlagSYN != 0 && hdr.Flags&FlagACK == 0 {
		if l, ok := h.listeners[pkt.Dst.Port()]; ok && !l.closed {
			h.acceptSyn(l, pkt)
			return
		}
	}
	if hdr.Flags&FlagRST == 0 {
		// No socket: refuse.
		h.sendRST(pkt)
	}
}

func (h *tcpHost) sendRST(in *Packet) {
	pkt := h.node.getPacket()
	pkt.UID = h.node.NextUID()
	pkt.Proto = ProtoTCP
	pkt.Src = in.Dst
	pkt.Dst = in.Src
	pkt.SetTCP(FlagRST, in.TCP.Ack, in.TCP.Seq+1)
	h.node.SendPacket(pkt)
}

func (h *tcpHost) acceptSyn(l *TCPListener, pkt *Packet) {
	//simlint:allow allocfree(connection setup allocates once per accepted conn behind a listener; orphan SYNs — the flood case — take the pooled sendRST path instead)
	c := &TCPConn{
		host:  h,
		sched: h.node.sched,
		key:   connKey{local: pkt.Dst, remote: pkt.Src},
		state: stateSynRcvd,
	}
	iss := uint32(h.node.sched.RNG().Int63())
	c.sndUna, c.sndNxt = iss, iss+1
	c.rcvNxt = pkt.TCP.Seq + 1
	h.addConn(c)
	//simlint:allow allocfree(accept callback is bound once per accepted connection during setup, not on the per-segment path)
	c.onDial = func(conn *TCPConn, err error) {
		if err == nil {
			l.accept(conn)
		}
	}
	c.sendSegment(FlagSYN|FlagACK, iss, c.rcvNxt, nil)
	c.armRTO()
}

func (c *TCPConn) handleSegment(pkt *Packet) {
	hdr := pkt.TCP
	if hdr.Flags&FlagRST != 0 {
		c.teardown(ErrConnReset)
		return
	}
	switch c.state {
	case stateSynSent:
		if hdr.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK && hdr.Ack == c.sndNxt {
			c.sndUna = hdr.Ack
			c.rcvNxt = hdr.Seq + 1
			c.state = stateEstablished
			c.cancelRTO()
			c.retries = 0
			c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil)
			if c.onDial != nil {
				cb := c.onDial
				c.onDial = nil
				cb(c, nil)
			}
			c.trySend()
		}
		return
	case stateSynRcvd:
		if hdr.Flags&FlagACK != 0 && hdr.Ack == c.sndNxt {
			// The ACK covers our SYN's sequence slot; consume it
			// before the accept callback queues data, or the slot
			// would be charged against the first payload byte.
			c.sndUna = hdr.Ack
			c.state = stateEstablished
			c.cancelRTO()
			c.retries = 0
			if c.onDial != nil {
				cb := c.onDial
				c.onDial = nil
				cb(c, nil)
			}
			// Fall through to normal processing for piggybacked data.
		} else {
			return
		}
	case stateClosed:
		return
	}

	// ACK processing.
	if hdr.Flags&FlagACK != 0 && seqLEq(hdr.Ack, c.sndNxt) && seqLT(c.sndUna, hdr.Ack) {
		acked := hdr.Ack - c.sndUna
		dataAcked := acked
		if c.finSent && seqLT(c.finAt, hdr.Ack) {
			dataAcked-- // FIN's sequence slot carries no data
		}
		if int(dataAcked) <= len(c.sendBuf) {
			c.sendBuf = c.sendBuf[dataAcked:]
		} else {
			c.sendBuf = nil
		}
		c.sndUna = hdr.Ack
		c.retries = 0
		c.cancelRTO()
		if c.sndUna != c.sndNxt {
			c.armRTO()
		}
		if c.finSent && c.sndUna == c.sndNxt && c.state == stateFinSent {
			// Our FIN is acknowledged; if the peer's FIN was already
			// processed we are fully closed.
			if c.closedErr == nil && c.remoteFinned {
				c.teardown(nil)
				return
			}
		}
		c.trySend()
	}

	// In-order data processing.
	if len(pkt.Payload) > 0 {
		if hdr.Seq == c.rcvNxt {
			c.rcvNxt += uint32(len(pkt.Payload))
			if c.onData != nil {
				c.onData(pkt.Payload)
			}
		}
		// ACK whatever we have (cumulative; duplicates tell the sender
		// where we are).
		if c.state != stateClosed {
			c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil)
		}
	}

	// FIN processing.
	if hdr.Flags&FlagFIN != 0 && c.state != stateClosed {
		finSeq := hdr.Seq + uint32(len(pkt.Payload))
		if finSeq == c.rcvNxt {
			c.rcvNxt++
			c.remoteFinned = true
			c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil)
			if !c.finSent {
				// Passive close: push our own FIN once our data drains.
				c.Close()
			}
			if c.finSent && c.sndUna == c.sndNxt {
				c.teardown(nil)
			}
		} else if seqLT(finSeq, c.rcvNxt) {
			// Retransmitted FIN we already consumed: re-ACK it.
			c.sendSegment(FlagACK, c.sndNxt, c.rcvNxt, nil)
		}
	}
}

// seqLT reports a < b in 32-bit sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEq reports a <= b in 32-bit sequence space.
func seqLEq(a, b uint32) bool { return int32(a-b) <= 0 }
