package dht

import (
	"net/netip"

	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// Host is what a DHT node needs from its runtime; *container.Process
// satisfies it, and tests provide a bare-node shim. Everything a node
// does runs on its host's scheduler — the package never touches
// another node's state except through the wire.
type Host interface {
	Sched() *sim.Scheduler
	Alive() bool
	BindUDP(port uint16, h netsim.DatagramHandler) (*netsim.UDPSocket, error)
	NewTicker(period sim.Time, fn func()) *sim.Ticker
	Logf(format string, args ...any)
}

// DefaultPort is the overlay's UDP port when Config.Port is zero
// (the BitTorrent DHT's).
const DefaultPort uint16 = 6881

// Config tunes a node. Zero values take the defaults below.
type Config struct {
	// Port is the overlay's UDP port (default DefaultPort).
	Port uint16
	// K is the bucket size and replication factor (default 8).
	K int
	// Alpha is the lookup concurrency (default 3).
	Alpha int
	// RPCTimeout is how long an unanswered request waits before its
	// peer is considered unresponsive (default 2 s).
	RPCTimeout sim.Time
	// RefreshPeriod drives the bucket-refresh ticker (default 120 s).
	// Each firing refreshes one bucket chosen round-robin among
	// non-empty candidates, keeping per-tick cost constant.
	RefreshPeriod sim.Time
}

func (c *Config) fill() {
	if c.Port == 0 {
		c.Port = DefaultPort
	}
	if c.K <= 0 {
		c.K = 8
	}
	if c.Alpha <= 0 {
		c.Alpha = 3
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * sim.Second
	}
	if c.RefreshPeriod <= 0 {
		c.RefreshPeriod = 120 * sim.Second
	}
}

// record is one stored key/value with its freshness sequence.
type record struct {
	value []byte
	seq   uint64
}

// pending is an in-flight RPC awaiting its response.
type pending struct {
	onReply   func(*Message)
	onTimeout func()
	timer     sim.EventID
}

// Node is one Kademlia participant.
type Node struct {
	host Host
	cfg  Config
	id   ID
	addr netip.AddrPort
	sock *netsim.UDPSocket

	table *Table
	// store is the record map; access is always direct-keyed (no
	// iteration), so map order can never leak into behaviour.
	store map[ID]*record

	pendingRPC map[uint32]*pending
	rpcSeq     uint32

	// evicting marks buckets with an eviction ping in flight so a
	// burst of newcomers can't stampede the same oldie.
	evicting map[int]bool

	refreshTicker *sim.Ticker
	refreshCursor int

	// OnStore observes accepted STOREs (the p2pbot layer hooks command
	// arrival here).
	OnStore func(key ID, value []byte, seq uint64)

	// OnContact observes every peer a datagram arrives from, before
	// table admission — the seeder's recruitment census hooks here.
	OnContact func(Contact)

	// Counters for tests and reports.
	RPCsSent     uint64
	RPCsTimedOut uint64
	StoresHeld   int
}

// New builds a node; Start brings it onto the wire.
func New(host Host, cfg Config) *Node {
	cfg.fill()
	return &Node{
		host:       host,
		cfg:        cfg,
		store:      make(map[ID]*record),
		pendingRPC: make(map[uint32]*pending),
		evicting:   make(map[int]bool),
	}
}

// Start binds the overlay socket and derives the node's ID from the
// bound endpoint.
func (n *Node) Start(addr netip.Addr) error {
	sock, err := n.host.BindUDP(n.cfg.Port, n.onDatagram)
	if err != nil {
		return err
	}
	n.sock = sock
	n.addr = netip.AddrPortFrom(addr, n.cfg.Port)
	n.id = NodeID(n.addr)
	n.table = NewTable(n.id, n.cfg.K)
	n.refreshTicker = n.host.NewTicker(n.cfg.RefreshPeriod, n.refreshTick)
	n.refreshTicker.Source = "dht.refresh"
	n.refreshTicker.Start()
	return nil
}

// Close detaches the node from the overlay.
func (n *Node) Close() {
	if n.refreshTicker != nil {
		n.refreshTicker.Stop()
	}
	if n.sock != nil {
		n.sock.Close()
	}
}

// ID reports the node's overlay identifier.
func (n *Node) ID() ID { return n.id }

// Addr reports the overlay endpoint.
func (n *Node) Addr() netip.AddrPort { return n.addr }

// TableLen reports the routing-table population.
func (n *Node) TableLen() int { return n.table.Len() }

// Local reads a locally held record.
func (n *Node) Local(key ID) (value []byte, seq uint64, ok bool) {
	r, ok := n.store[key]
	if !ok {
		return nil, 0, false
	}
	return r.value, r.seq, true
}

// StoreLocal inserts/refreshes a record locally, enforcing the
// sequence monotonicity rule (stale seq loses). Reports whether the
// record was accepted.
func (n *Node) StoreLocal(key ID, value []byte, seq uint64) bool {
	if r, ok := n.store[key]; ok {
		if seq < r.seq {
			return false
		}
		r.value = value
		r.seq = seq
		return true
	}
	n.store[key] = &record{value: value, seq: seq}
	n.StoresHeld++
	return true
}

// ---------------------------------------------------------------------
// RPC plumbing

func (n *Node) nextRPC() uint32 {
	n.rpcSeq++
	return n.rpcSeq
}

// send transmits a request and registers its continuation. Either
// onReply or onTimeout fires, exactly once.
func (n *Node) send(dst netip.AddrPort, m *Message, onReply func(*Message), onTimeout func()) {
	m.RPC = n.nextRPC()
	m.Sender = n.id
	p := &pending{onReply: onReply, onTimeout: onTimeout}
	p.timer = n.host.Sched().ScheduleSrc(n.cfg.RPCTimeout, "dht.timeout", func() {
		delete(n.pendingRPC, m.RPC)
		n.RPCsTimedOut++
		if p.onTimeout != nil {
			p.onTimeout()
		}
	})
	n.pendingRPC[m.RPC] = p
	n.RPCsSent++
	n.sock.SendTo(dst, m.Encode())
}

// reply transmits a response echoing the request's rpc id.
func (n *Node) reply(dst netip.AddrPort, req *Message, m *Message) {
	m.RPC = req.RPC
	m.Sender = n.id
	n.sock.SendTo(dst, m.Encode())
}

func (n *Node) onDatagram(src netip.AddrPort, payload []byte, _ int) {
	if !n.host.Alive() {
		return
	}
	m, err := Decode(payload)
	if err != nil {
		return
	}
	n.observe(Contact{ID: m.Sender, Addr: src})
	switch m.Type {
	case tPing:
		n.reply(src, m, &Message{Type: tPong})
	case tFindNode:
		n.reply(src, m, &Message{Type: tNodes, Contacts: n.closestFor(m.Target, m.Sender)})
	case tFindValue:
		if r, ok := n.store[m.Target]; ok {
			n.reply(src, m, &Message{Type: tValue, Key: m.Target, Seq: r.seq, Value: r.value})
			return
		}
		n.reply(src, m, &Message{Type: tNodes, Contacts: n.closestFor(m.Target, m.Sender)})
	case tStore:
		if n.StoreLocal(m.Key, m.Value, m.Seq) && n.OnStore != nil {
			n.OnStore(m.Key, m.Value, m.Seq)
		}
		n.reply(src, m, &Message{Type: tStoreOK, Key: m.Key})
	case tPong, tNodes, tValue, tStoreOK:
		p, ok := n.pendingRPC[m.RPC]
		if !ok {
			return // late or forged response
		}
		delete(n.pendingRPC, m.RPC)
		n.host.Sched().Cancel(p.timer)
		if p.onReply != nil {
			p.onReply(m)
		}
	}
}

// closestFor answers a lookup request: our K closest to target,
// excluding the asker (it knows itself).
func (n *Node) closestFor(target ID, asker ID) []Contact {
	cs := n.table.Closest(target, n.cfg.K+1)
	out := cs[:0]
	for _, c := range cs {
		if c.ID != asker {
			out = append(out, c)
		}
	}
	if len(out) > n.cfg.K {
		out = out[:n.cfg.K]
	}
	return out
}

// observe feeds table maintenance with every peer we hear from,
// running the LRU ping/evict policy when a bucket is full.
func (n *Node) observe(c Contact) {
	if n.OnContact != nil {
		n.OnContact(c)
	}
	res, oldest := n.table.Seen(c)
	if res != SeenFull {
		return
	}
	idx := BucketIndex(n.id, c.ID)
	if n.evicting[idx] {
		return // one eviction probe per bucket at a time
	}
	n.evicting[idx] = true
	newcomer := c
	n.send(oldest.Addr, &Message{Type: tPing},
		func(*Message) {
			// The oldie answered: it stays, the newcomer is dropped
			// (and its traffic will offer it again soon enough).
			delete(n.evicting, idx)
		},
		func() {
			delete(n.evicting, idx)
			n.table.Evict(oldest.ID, newcomer)
		})
}

// ---------------------------------------------------------------------
// Iterative lookup

// lookupResult is what a finished lookup hands its continuation.
type lookupResult struct {
	// Closest holds the closest responsive contacts found (<= K).
	Closest []Contact
	// Found/Value/Seq carry a record when a FIND_VALUE hit.
	Found bool
	Value []byte
	Seq   uint64
	// CacheTo is the closest responsive node that did NOT hold the
	// value — the path-caching target.
	CacheTo  Contact
	HasCache bool
}

const (
	lsCandidate = iota
	lsInflight
	lsDone
	lsFailed
)

type lookupEntry struct {
	c     Contact
	state int
}

// lookup is one iterative FIND_NODE/FIND_VALUE execution: query the
// alpha closest unqueried candidates, merge every reply's contacts
// into a distance-sorted shortlist, and stop when the K closest known
// entries have all answered (or everything failed).
type lookup struct {
	n         *Node
	target    ID
	wantValue bool
	entries   []*lookupEntry
	inflight  int
	finished  bool
	onDone    func(lookupResult)
}

func (n *Node) newLookup(target ID, wantValue bool, seed []Contact, onDone func(lookupResult)) {
	l := &lookup{n: n, target: target, wantValue: wantValue, onDone: onDone}
	for _, c := range seed {
		l.add(c)
	}
	for _, c := range n.table.Closest(target, n.cfg.K) {
		l.add(c)
	}
	l.step()
}

// add inserts a contact into the shortlist unless present, keeping the
// list sorted by distance (ID tiebreak).
func (l *lookup) add(c Contact) {
	if c.ID == l.n.id {
		return
	}
	d := c.ID.XOR(l.target)
	pos := len(l.entries)
	for i, e := range l.entries {
		ed := e.c.ID.XOR(l.target)
		if e.c.ID == c.ID {
			return
		}
		if d.Less(ed) || (d == ed && string(c.ID[:]) < string(e.c.ID[:])) {
			pos = i
			break
		}
	}
	// The duplicate scan must cover the whole list, not just the prefix
	// before the insertion point.
	for _, e := range l.entries[pos:] {
		if e.c.ID == c.ID {
			return
		}
	}
	l.entries = append(l.entries, nil)
	copy(l.entries[pos+1:], l.entries[pos:])
	l.entries[pos] = &lookupEntry{c: c}
}

// step launches queries and checks termination.
func (l *lookup) step() {
	if l.finished {
		return
	}
	k, alpha := l.n.cfg.K, l.n.cfg.Alpha
	// Walk the K closest non-failed entries; fire candidates.
	considered, done := 0, 0
	for _, e := range l.entries {
		if e.state == lsFailed {
			continue
		}
		considered++
		if considered > k {
			break
		}
		switch e.state {
		case lsDone:
			done++
		case lsCandidate:
			if l.inflight < alpha {
				l.query(e)
			}
		}
	}
	if l.inflight == 0 {
		// No queries running and nothing launchable within the top K:
		// the closest known set is as answered as it will get.
		l.finish(lookupResult{})
	} else if done >= k {
		l.finish(lookupResult{})
	}
}

func (l *lookup) query(e *lookupEntry) {
	e.state = lsInflight
	l.inflight++
	typ := byte(tFindNode)
	if l.wantValue {
		typ = tFindValue
	}
	l.n.send(e.c.Addr, &Message{Type: typ, Target: l.target},
		func(m *Message) {
			l.inflight--
			if l.finished {
				return
			}
			e.state = lsDone
			if l.wantValue && m.Type == tValue && m.Key == l.target {
				l.finish(lookupResult{Found: true, Value: m.Value, Seq: m.Seq})
				return
			}
			for _, c := range m.Contacts {
				l.add(c)
			}
			l.step()
		},
		func() {
			l.inflight--
			if l.finished {
				return
			}
			e.state = lsFailed
			l.step()
		})
}

func (l *lookup) finish(res lookupResult) {
	if l.finished {
		return
	}
	l.finished = true
	for _, e := range l.entries {
		if e.state != lsDone {
			continue
		}
		if len(res.Closest) < l.n.cfg.K {
			res.Closest = append(res.Closest, e.c)
		}
		if !res.HasCache {
			res.CacheTo = e.c
			res.HasCache = true
		}
	}
	if l.onDone != nil {
		l.onDone(res)
	}
}

// ---------------------------------------------------------------------
// Public operations

// Join bootstraps the node into an overlay through the given seed
// endpoints (their IDs are derivable from their addresses). onDone
// reports how many contacts the table holds afterwards.
func (n *Node) Join(bootstrap []netip.AddrPort, onDone func(contacts int)) {
	seed := make([]Contact, 0, len(bootstrap))
	for _, ap := range bootstrap {
		if ap == n.addr {
			continue
		}
		seed = append(seed, Contact{ID: NodeID(ap), Addr: ap})
	}
	n.newLookup(n.id, false, seed, func(lookupResult) {
		if onDone != nil {
			onDone(n.table.Len())
		}
	})
}

// Put replicates a record to the K overlay nodes closest to key (plus
// this node's own store). onDone reports how many STOREs were
// acknowledged.
func (n *Node) Put(key ID, value []byte, seq uint64, onDone func(acked int)) {
	n.StoreLocal(key, value, seq)
	n.newLookup(key, false, nil, func(res lookupResult) {
		if len(res.Closest) == 0 {
			if onDone != nil {
				onDone(0)
			}
			return
		}
		acked, waiting := 0, len(res.Closest)
		for _, c := range res.Closest {
			n.send(c.Addr, &Message{Type: tStore, Key: key, Seq: seq, Value: value},
				func(*Message) {
					acked++
					waiting--
					if waiting == 0 && onDone != nil {
						onDone(acked)
					}
				},
				func() {
					waiting--
					if waiting == 0 && onDone != nil {
						onDone(acked)
					}
				})
		}
	})
}

// Get resolves key through the overlay. On a hit the record is also
// path-cached at the closest responsive node that lacked it, which is
// what turns every poll into epidemic replication. onDone always
// fires.
func (n *Node) Get(key ID, onDone func(value []byte, seq uint64, found bool)) {
	if r, ok := n.store[key]; ok {
		if onDone != nil {
			onDone(r.value, r.seq, true)
		}
		return
	}
	n.newLookup(key, true, nil, func(res lookupResult) {
		if res.Found {
			n.StoreLocal(key, res.Value, res.Seq)
			if res.HasCache {
				n.send(res.CacheTo.Addr,
					&Message{Type: tStore, Key: key, Seq: res.Seq, Value: res.Value}, nil, nil)
			}
		}
		if onDone != nil {
			onDone(res.Value, res.Seq, res.Found)
		}
	})
}

// refreshTick refreshes one bucket per firing: it walks the cursor to
// the next bucket index and looks up a pseudo-random ID inside it,
// which both repopulates sparse regions and detects dead contacts.
func (n *Node) refreshTick() {
	if !n.host.Alive() || n.table.Len() == 0 {
		return
	}
	rng := n.host.Sched().RNG()
	for scanned := 0; scanned < IDBits; scanned++ {
		n.refreshCursor = (n.refreshCursor + 1) % IDBits
		// Refresh buckets that could plausibly hold someone: any
		// occupied bucket, or an empty one adjacent to the occupied
		// range (cheap heuristic; exhaustively refreshing all 160 is
		// pointless at simulation scale).
		if n.table.BucketLen(n.refreshCursor) > 0 {
			target := RandomIDInBucket(n.id, n.refreshCursor, func() byte { return byte(rng.Intn(256)) })
			n.newLookup(target, false, nil, nil)
			return
		}
	}
}
