package dht

import (
	"bytes"
	"slices"
)

// Table is the Kademlia routing table: IDBits k-buckets of contacts,
// bucket i holding peers whose distance from self has its highest set
// bit at position i. Each bucket is LRU-ordered — index 0 is the
// least-recently-seen contact, the tail the freshest — and holds at
// most k entries. The table itself never pings anyone: when a bucket
// is full, Seen reports the eviction candidate and the node layer
// decides by pinging it (Kademlia's "old contacts are good contacts"
// policy: a responsive oldie stays, the newcomer is dropped).
type Table struct {
	self    ID
	k       int
	buckets [IDBits][]Contact
	used    []uint8 // indices of the non-empty buckets, ascending
	size    int
}

// NewTable builds the table for owner self with bucket capacity k.
func NewTable(self ID, k int) *Table {
	return &Table{self: self, k: k}
}

// Len reports the total number of contacts.
func (t *Table) Len() int { return t.size }

// SeenResult describes the outcome of observing a contact.
type SeenResult int

const (
	// SeenAdded: the contact entered (or refreshed) its bucket.
	SeenAdded SeenResult = iota
	// SeenFull: the bucket is full; the caller should ping the
	// eviction candidate and call Evict or ignore the newcomer.
	SeenFull
	// SeenSelf: the contact is the table owner; never stored.
	SeenSelf
)

// Seen records traffic from c. If its bucket is full and c is not
// already present, it reports SeenFull along with the
// least-recently-seen occupant as the eviction candidate.
func (t *Table) Seen(c Contact) (SeenResult, Contact) {
	idx := BucketIndex(t.self, c.ID)
	if idx < 0 {
		return SeenSelf, Contact{}
	}
	b := t.buckets[idx]
	for i := range b {
		if b[i].ID == c.ID {
			// Move to tail: freshest position.
			moved := b[i]
			copy(b[i:], b[i+1:])
			b[len(b)-1] = moved
			return SeenAdded, Contact{}
		}
	}
	if len(b) < t.k {
		if len(b) == 0 {
			i, _ := slices.BinarySearch(t.used, uint8(idx))
			t.used = slices.Insert(t.used, i, uint8(idx))
		}
		t.buckets[idx] = append(b, c)
		t.size++
		return SeenAdded, Contact{}
	}
	return SeenFull, b[0]
}

// Evict removes id (the losing eviction candidate) and inserts
// replacement at the fresh end of the same bucket.
func (t *Table) Evict(id ID, replacement Contact) {
	idx := BucketIndex(t.self, id)
	if idx < 0 || idx != BucketIndex(t.self, replacement.ID) {
		return
	}
	b := t.buckets[idx]
	for i := range b {
		if b[i].ID == id {
			copy(b[i:], b[i+1:])
			b[len(b)-1] = replacement
			return
		}
	}
}

// Remove drops a dead contact.
func (t *Table) Remove(id ID) {
	idx := BucketIndex(t.self, id)
	if idx < 0 {
		return
	}
	b := t.buckets[idx]
	for i := range b {
		if b[i].ID == id {
			t.buckets[idx] = append(b[:i], b[i+1:]...)
			t.size--
			if len(b) == 1 {
				u, _ := slices.BinarySearch(t.used, uint8(idx))
				t.used = slices.Delete(t.used, u, u+1)
			}
			return
		}
	}
}

// Closest returns up to n contacts sorted by XOR distance to target
// (ties broken by ID bytes — a total order, so the result is
// deterministic regardless of insertion history). It computes each
// visited contact's distance once, keeps the n best in a sorted
// window, and allocates only the result.
//
// Each bucket holds a disjoint range of distances from target, so the
// scan visits the non-empty buckets nearest range first and stops at
// the first one that leaves the window full. With x = self XOR target
// and j its highest set bit: bucket j is nearest (distances below
// 2^j); the buckets below j all lie in [2^j, 2^(j+1)), where one whose
// bit of x is set is nearer than every bucket below it and one whose
// bit is clear is farther; each bucket i above j lies in
// [2^i, 2^(i+1)).
func (t *Table) Closest(target ID, n int) []Contact {
	n = min(n, t.size)
	out := make([]Contact, 0, n)
	if n == 0 {
		return out
	}
	// The window's distances, parallel to out; on the stack for every
	// n a node asks for (K+1, for any K up to 15).
	var dbuf [16]Distance
	ds := dbuf[:]
	if n > len(dbuf) {
		ds = make([]Distance, n)
	}
	// full merges bucket i into the window and reports whether the
	// window is full.
	full := func(i uint8) bool {
		out = nearest(out, ds, target, t.buckets[i])
		return len(out) == n
	}
	x := t.self.XOR(target)
	below, above := []uint8(nil), t.used
	if j := x.top(); j >= 0 { // j < 0: target is self, every bucket is above
		p, hit := slices.BinarySearch(t.used, uint8(j))
		below, above = t.used[:p], t.used[p:]
		if hit {
			if full(uint8(j)) {
				return out
			}
			above = above[1:]
		}
	}
	for k := len(below) - 1; k >= 0; k-- {
		if i := below[k]; x.bit(int(i)) && full(i) {
			return out
		}
	}
	for _, i := range below {
		if !x.bit(int(i)) && full(i) {
			return out
		}
	}
	for _, i := range above {
		if full(i) {
			return out
		}
	}
	return out
}

// BucketLen reports the occupancy of bucket idx (refresh targeting).
func (t *Table) BucketLen(idx int) int { return len(t.buckets[idx]) }

// nearest offers every contact of bucket to out, the sorted window of
// the cap(out) contacts nearest target seen so far (ds[i] is out[i]'s
// distance), and returns the window.
func nearest(out []Contact, ds []Distance, target ID, bucket []Contact) []Contact {
	for _, c := range bucket {
		d := c.ID.XOR(target)
		pos := len(out)
		if pos < cap(out) {
			out = append(out, c)
		} else if closer(d, c.ID, ds[pos-1], out[pos-1].ID) {
			pos-- // evict the farthest
		} else {
			continue
		}
		for ; pos > 0 && closer(d, c.ID, ds[pos-1], out[pos-1].ID); pos-- {
			out[pos], ds[pos] = out[pos-1], ds[pos-1]
		}
		out[pos], ds[pos] = c, d
	}
	return out
}

// closer reports whether the entry (da, a) sorts before (db, b): by
// XOR distance to the common target, then by ID bytes. Equal distances
// to one target mean equal IDs, so the tiebreak only makes the order
// total on paper; Closest and the lookup shortlist share it.
func closer(da Distance, a ID, db Distance, b ID) bool {
	if c := bytes.Compare(da[:], db[:]); c != 0 {
		return c < 0
	}
	return bytes.Compare(a[:], b[:]) < 0
}
