package sim

// Item is one scheduler queue entry. Items are plain values stored in
// the heap's slice, never behind per-event pointers, so the
// steady-state event loop performs no heap allocation. Ref packs the
// scheduler's (slot, generation) handle and is opaque to the queue.
type Item struct {
	At  Time
	Seq uint64
	Ref uint64
}

// itemLess orders items by (time, insertion sequence): the same
// FIFO-within-timestamp total order NS-3's schedulers guarantee. The
// order is total — Seq is unique — so the pop sequence is a pure
// function of the pushed items, whatever the heap's internal layout.
func itemLess(a, b Item) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}

// heapQueue is the scheduler's event queue: a slice-backed 4-ary
// min-heap of value items. Compared with container/heap it avoids the
// interface boxing, the per-push allocation, and half the levels, and
// it keeps a node's children in one cache line. It pops in exactly
// itemLess order and retains no popped Item.
type heapQueue struct {
	a []Item
}

func (q *heapQueue) Len() int { return len(q.a) }

func (q *heapQueue) Peek() (Item, bool) {
	if len(q.a) == 0 {
		return Item{}, false
	}
	return q.a[0], true
}

func (q *heapQueue) Push(it Item) {
	q.a = append(q.a, it) //simlint:allow allocfree(heap slab doubling is amortized O(1) per event; a warmed queue pushes into spare capacity)
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !itemLess(it, q.a[p]) {
			break
		}
		q.a[i] = q.a[p]
		i = p
	}
	q.a[i] = it
}

func (q *heapQueue) Pop() (Item, bool) {
	n := len(q.a)
	if n == 0 {
		return Item{}, false
	}
	top := q.a[0]
	last := q.a[n-1]
	q.a = q.a[:n-1]
	n--
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			best := c
			hi := c + 4
			if hi > n {
				hi = n
			}
			for j := c + 1; j < hi; j++ {
				if itemLess(q.a[j], q.a[best]) {
					best = j
				}
			}
			if !itemLess(q.a[best], last) {
				break
			}
			q.a[i] = q.a[best]
			i = best
		}
		q.a[i] = last
	}
	return top, true
}

// maxLanes caps the FIFO lanes kept beside the heap. Every pop compares
// each non-empty lane head with the heap top, so a lane only pays for
// itself while its delay is common; four measured fastest on the flood
// workloads, and more were slower (DESIGN.md §6b).
const maxLanes = 4

// lane is a FIFO ring of items that were all scheduled with one
// relative delay. The clock never goes back and Seq only grows, so
// items arrive already in itemLess order and the head is the lane's
// minimum. The capacity is zero or a power of two, so indices wrap
// with a mask.
type lane struct {
	delay Time
	buf   []Item
	head  int
	n     int
}

func (l *lane) push(it Item) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = it
	l.n++
}

// grow doubles a full ring, unrolling it to start at index 0.
func (l *lane) grow() {
	size := 2 * len(l.buf)
	if size < 8 {
		size = 8
	}
	nb := make([]Item, size) //simlint:allow allocfree(lane doubling is amortized O(1) per event and the ring never shrinks, so a warmed lane stops growing)
	k := copy(nb, l.buf[l.head:])
	copy(nb[k:], l.buf[:l.head])
	l.buf, l.head = nb, 0
}

// peek returns the head item; the lane must be non-empty.
func (l *lane) peek() Item { return l.buf[l.head] }

func (l *lane) pop() {
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}
