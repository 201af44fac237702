package dht

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
)

// refClosest is the reference Closest: copy the whole table, sort it
// by (XOR distance, ID bytes), keep the first n.
func refClosest(t *Table, target ID, n int) []Contact {
	var all []Contact
	for i := range t.buckets {
		all = append(all, t.buckets[i]...)
	}
	sort.Slice(all, func(i, j int) bool {
		di, dj := all[i].ID.XOR(target), all[j].ID.XOR(target)
		if di != dj {
			return di.Less(dj)
		}
		return string(all[i].ID[:]) < string(all[j].ID[:])
	})
	return all[:min(n, len(all))]
}

// contactGen makes contacts whose IDs fall in chosen buckets of self,
// mostly the far ones a random population fills, with unique
// addresses.
type contactGen struct {
	self ID
	rng  *rand.Rand
	next int
}

func (g *contactGen) inBucket(idx int) Contact {
	g.next++
	id := RandomIDInBucket(g.self, idx, func() byte { return byte(g.rng.Intn(256)) })
	ap := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(g.next >> 16), byte(g.next >> 8), byte(g.next)}), DefaultPort)
	return Contact{ID: id, Addr: ap}
}

func (g *contactGen) random() Contact {
	idx := IDBits - 1 - g.rng.Intn(12)
	if g.rng.Intn(8) == 0 {
		idx = g.rng.Intn(IDBits)
	}
	return g.inBucket(idx)
}

// randomTable drives a table through ops random Seen/Evict/Remove
// calls, as the node layer and a churning overlay would.
func randomTable(rng *rand.Rand, k, ops int) *Table {
	var self ID
	rng.Read(self[:])
	g := &contactGen{self: self, rng: rng}
	t := NewTable(self, k)
	var known []Contact // every contact ever offered, for re-sightings
	present := func(id ID) bool {
		for _, c := range t.buckets[max(BucketIndex(self, id), 0)] {
			if c.ID == id {
				return true
			}
		}
		return false
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 6: // a datagram from a new or known peer
			c := g.random()
			if len(known) > 0 && rng.Intn(3) == 0 {
				c = known[rng.Intn(len(known))]
			}
			known = append(known, c)
			if res, oldest := t.Seen(c); res == SeenFull && rng.Intn(2) == 0 {
				// The eviction ping timed out: the newcomer replaces it.
				t.Evict(oldest.ID, c)
			}
		case r < 8: // an eviction racing other traffic
			if len(known) == 0 {
				continue
			}
			victim := known[rng.Intn(len(known))]
			repl := g.inBucket(max(BucketIndex(self, victim.ID), 0))
			if !present(repl.ID) {
				t.Evict(victim.ID, repl)
			}
		case r < 9: // a dead peer dropped
			if len(known) > 0 {
				t.Remove(known[rng.Intn(len(known))].ID)
			}
		default:
			t.Seen(Contact{ID: self})
		}
	}
	return t
}

// Property: Closest agrees element by element with the sort-the-table
// reference for tables built from random histories, for random
// targets, the owner and every member, and for n from 1 to past Len.
func TestClosestMatchesSortReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := []int{1, 2, 3, 8, 20}[seed%5]
		tab := randomTable(rng, k, 200+rng.Intn(400))
		targets := []ID{tab.self}
		for i := 0; i < 16; i++ {
			var id ID
			rng.Read(id[:])
			targets = append(targets, id)
		}
		for i := range tab.buckets {
			for _, c := range tab.buckets[i] {
				targets = append(targets, c.ID)
			}
		}
		size, used := 0, []uint8(nil)
		for i := range tab.buckets {
			if len(tab.buckets[i]) > 0 {
				size += len(tab.buckets[i])
				used = append(used, uint8(i))
			}
		}
		if tab.Len() != size || !slices.Equal(tab.used, used) {
			t.Fatalf("seed %d: Len %d, used %v; buckets hold %d in %v", seed, tab.Len(), tab.used, size, used)
		}
		for _, target := range targets {
			for _, n := range []int{1, k, k + 1, tab.Len(), tab.Len() + 3} {
				got, want := tab.Closest(target, n), refClosest(tab, target, n)
				if len(got) != len(want) {
					t.Fatalf("seed %d n %d: %d contacts, want %d", seed, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d n %d target %v: [%d] = %v, want %v", seed, n, target, i, got[i].ID, want[i].ID)
					}
				}
			}
		}
	}
}

// filledTable holds k contacts in each of the given number of farthest
// buckets of a random owner: the shape a node's table takes in a large
// overlay.
func filledTable(rng *rand.Rand, k, buckets int) *Table {
	var self ID
	rng.Read(self[:])
	g := &contactGen{self: self, rng: rng}
	t := NewTable(self, k)
	for b := 0; b < buckets; b++ {
		for i := 0; i < k; i++ {
			t.Seen(g.inBucket(IDBits - 1 - b))
		}
	}
	return t
}

// Closest allocates its result and nothing else, however large the
// table.
func TestClosestAllocatesOnlyResult(t *testing.T) {
	for _, buckets := range []int{2, 10, 40} {
		rng := rand.New(rand.NewSource(int64(buckets)))
		tab := filledTable(rng, 8, buckets)
		var target ID
		rng.Read(target[:])
		if got := testing.AllocsPerRun(100, func() { tab.Closest(target, 9) }); got != 1 {
			t.Fatalf("%d contacts: %v allocs per Closest, want 1", tab.Len(), got)
		}
	}
}

// closestSink keeps BenchmarkTableClosest's calls from being optimized
// away.
var closestSink []Contact

func BenchmarkTableClosest(b *testing.B) {
	for _, buckets := range []int{10, 40} {
		rng := rand.New(rand.NewSource(1))
		tab := filledTable(rng, 8, buckets)
		targets := make([]ID, 64)
		for i := range targets {
			rng.Read(targets[i][:])
		}
		b.Run(fmt.Sprintf("contacts=%d", tab.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				closestSink = tab.Closest(targets[i%len(targets)], 9)
			}
		})
	}
}
