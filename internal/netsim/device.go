package netsim

import "ddosim/internal/sim"

// Sources labelling a device's transmit and propagation events.
var (
	srcTx   = sim.NewSource("net.tx")
	srcProp = sim.NewSource("net.prop")
)

// DeviceStats aggregates per-device counters. The resource model and
// the defense feature extractor both read these.
type DeviceStats struct {
	TxPackets   uint64
	TxBytes     uint64
	RxPackets   uint64
	RxBytes     uint64
	QueueDrops  uint64
	DownDrops   uint64
	LossDrops   uint64
	PeakQueue   int
	CurrentLoad int
}

// NetDevice is one endpoint of a full-duplex point-to-point link. It
// owns a drop-tail egress queue and models serialization delay at its
// configured rate plus the link's propagation delay — the same
// first-order behaviour as an NS-3 PointToPointNetDevice.
//
// A NetDevice doubles as the "TapBridge ghost node" of the paper: a
// container's eth0 is bound to one of these, giving its processes the
// illusion of a direct attachment to the simulated network.
type NetDevice struct {
	node  *Node
	peer  *NetDevice
	sched *sim.Scheduler

	rate  DataRate
	delay sim.Time

	// queue is the drop-tail egress buffer; inflight holds frames that
	// finished serializing and are propagating toward the peer. Both are
	// rings so the steady-state tx path never allocates. The tx and
	// prop callbacks are bound once at Connect for the same reason — a
	// closure per frame was one of the two allocations on the flood
	// path.
	queue        pktRing
	inflight     pktRing
	queueLimit   int
	transmitting bool
	txEvent      sim.EventID
	txFn         func()
	propFn       func()
	up           bool
	lossRate     float64

	stats DeviceStats
}

// DefaultQueueLimit is the drop-tail queue depth in packets when a link
// is created without an explicit limit. NS-3's default DropTailQueue is
// 100 packets; the paper keeps the default.
const DefaultQueueLimit = 100

// Connect joins two nodes with a full-duplex link. Each direction
// serializes at the respective sender's rate and is delayed by delay.
// It returns the two endpoint devices, attached to a and b in order.
func Connect(a, b *Node, rate DataRate, delay sim.Time, queueLimit int) (*NetDevice, *NetDevice) {
	if queueLimit <= 0 {
		queueLimit = DefaultQueueLimit
	}
	da := &NetDevice{node: a, sched: a.sched, rate: rate, delay: delay, queueLimit: queueLimit, up: true}
	db := &NetDevice{node: b, sched: b.sched, rate: rate, delay: delay, queueLimit: queueLimit, up: true}
	da.txFn, da.propFn = da.finishTx, da.arriveProp
	db.txFn, db.propFn = db.finishTx, db.arriveProp
	da.peer = db
	db.peer = da
	a.attach(da)
	b.attach(db)
	return da, db
}

// ConnectAsym joins two nodes with per-direction rates: rateAB applies
// to frames a sends toward b, rateBA to the reverse direction.
func ConnectAsym(a, b *Node, rateAB, rateBA DataRate, delay sim.Time, queueLimit int) (*NetDevice, *NetDevice) {
	da, db := Connect(a, b, rateAB, delay, queueLimit)
	db.rate = rateBA
	return da, db
}

// Node reports the node this device is attached to.
func (d *NetDevice) Node() *Node { return d.node }

// Peer reports the device at the other end of the link.
func (d *NetDevice) Peer() *NetDevice { return d.peer }

// Rate reports the egress serialization rate.
func (d *NetDevice) Rate() DataRate { return d.rate }

// SetRate changes the egress serialization rate. Takes effect for the
// next dequeued frame.
func (d *NetDevice) SetRate(r DataRate) {
	d.rate = r
}

// QueueLimit reports the drop-tail egress queue depth.
func (d *NetDevice) QueueLimit() int { return d.queueLimit }

// SetQueueLimit changes the drop-tail depth. Takes effect for the next
// enqueue; frames already queued above the new limit are not evicted.
func (d *NetDevice) SetQueueLimit(n int) {
	if n <= 0 {
		n = DefaultQueueLimit
	}
	d.queueLimit = n
}

// Stats returns a copy of the device counters.
func (d *NetDevice) Stats() DeviceStats {
	st := d.stats
	st.CurrentLoad = d.queue.len()
	return st
}

// IsUp reports whether the device is administratively up.
func (d *NetDevice) IsUp() bool { return d.up }

// SetUp brings the device up or down. Bringing a device down cancels
// the in-progress transmission, flushes its egress queue into
// DownDrops (the frame being serialized included), and silently
// discards anything in flight toward it; this is how churn disconnects
// a Dev. Frames already propagating on the wire still arrive (and are
// dropped by the peer if it is down too).
func (d *NetDevice) SetUp(up bool) {
	if d.up == up {
		return
	}
	d.up = up
	if !up {
		if d.transmitting {
			d.sched.Cancel(d.txEvent)
			d.transmitting = false
		}
		d.stats.DownDrops += uint64(d.queue.len())
		d.node.addQueued(-d.queue.len())
		for d.queue.len() > 0 {
			d.node.putPacket(d.queue.pop())
		}
	}
}

// Send enqueues a frame for transmission, taking ownership of pkt. The
// frame is dropped (and freed) when the device is down or the drop-tail
// queue is full.
func (d *NetDevice) Send(pkt *Packet) {
	pkt.sanCheck("NetDevice.Send")
	if !d.up {
		d.stats.DownDrops++
		d.node.putPacket(pkt)
		return
	}
	if d.queue.len() >= d.queueLimit {
		d.stats.QueueDrops++
		d.node.countDrop("drop-tail")
		d.node.putPacket(pkt)
		return
	}
	d.queue.push(pkt)
	d.node.addQueued(1)
	if d.queue.len() > d.stats.PeakQueue {
		d.stats.PeakQueue = d.queue.len()
	}
	if !d.transmitting {
		d.transmitNext()
	}
}

// transmitNext starts serializing the frame at the head of the queue.
// The completion event is remembered in txEvent so SetUp(false) can
// cancel it instead of letting a stale completion fire against a
// flushed (or refilled) queue.
func (d *NetDevice) transmitNext() {
	if !d.up || d.queue.len() == 0 {
		d.transmitting = false
		return
	}
	d.transmitting = true
	txTime := d.rate.TxTime(d.queue.peek().Size())
	d.txEvent = d.sched.ScheduleSrc(txTime, srcTx, d.txFn)
}

// finishTx completes serialization of the head frame: it leaves the
// queue, enters the in-flight window, and its arrival at the peer is
// scheduled one propagation delay out.
func (d *NetDevice) finishTx() {
	if !d.up || d.queue.len() == 0 {
		// Unreachable in normal operation: SetUp(false) cancels the
		// completion event. Kept as a safety net.
		d.transmitting = false
		return
	}
	pkt := d.queue.pop()
	d.node.addQueued(-1)
	size := pkt.Size()
	d.stats.TxPackets++
	d.stats.TxBytes += uint64(size)
	d.node.countTx(size, pkt.Proto)
	d.inflight.push(pkt)
	d.sched.ScheduleSrc(d.delay, srcProp, d.propFn)
	d.transmitNext()
}

// arriveProp delivers the oldest in-flight frame to the peer. Matching
// arrivals to frames by FIFO position is sound because every flight on
// this device takes the same fixed delay and the scheduler is FIFO
// within a timestamp: arrival events fire in exactly push order.
func (d *NetDevice) arriveProp() {
	d.peer.receive(d.inflight.pop())
}

// SetLossRate makes the device drop each received frame independently
// with probability p — modeling degraded link quality (the q(h) of the
// churn model, §IV-A) below the threshold of full departure. The
// closed interval [0,1] is accepted: p = 1 models a fully dead receive
// path (every frame drops, since Float64 draws land in [0,1)) without
// tearing the link down the way SetUp(false) would, and without
// perturbing the per-frame RNG draw sequence for any p < 1.
func (d *NetDevice) SetLossRate(p float64) {
	if p < 0 || p > 1 {
		panic("netsim: loss rate must be in [0,1]")
	}
	d.lossRate = p
}

// LossRate reports the configured receive-loss probability.
func (d *NetDevice) LossRate() float64 { return d.lossRate }

func (d *NetDevice) receive(pkt *Packet) {
	pkt.sanCheck("NetDevice.receive")
	if !d.up {
		d.stats.DownDrops++
		d.node.putPacket(pkt)
		return
	}
	if d.lossRate > 0 && d.sched.RNG().Float64() < d.lossRate {
		d.stats.LossDrops++
		d.node.countDrop("loss")
		d.node.putPacket(pkt)
		return
	}
	d.stats.RxPackets++
	d.stats.RxBytes += uint64(pkt.Size())
	d.node.handleReceive(d, pkt)
}

// String identifies the device by its owning node in traces.
// Addressing lives on nodes, not devices.
func (d *NetDevice) String() string {
	if d.node != nil {
		return "dev@" + d.node.Name()
	}
	return "dev@?"
}
