package simclock

import "sort"

// This file is the engine's scheduler data structure: a calendar queue
// (R. Brown, CACM 1988) storing value-typed events in time buckets, each
// bucket a binary min-heap on (at, seq). It replaces the previous
// container/heap of *event pointers, whose per-At allocation and O(log n)
// sift over the whole queue dominated the DES hot path at fleet scale (see
// DESIGN.md §14).
//
// Shape: nbuckets (a power of two) heaps. An event at virtual time `at`
// lives in bucket int(at/width) & mask — the "day of year" mapping — and a
// bucket's minimum sits at b[0]. A dequeue cursor sweeps slots in
// increasing virtual-slot order; a slot's head event is due exactly when
// its own virtual slot number equals the cursor's. Because both enqueue and
// dequeue derive the slot from the same float division, the due test is an
// exact integer comparison — there is no epsilon boundary between a
// bucket's "year end" and the next event's timestamp.
//
// Two events with equal `at` always map to the same bucket, and (at, seq)
// is a total order, so each bucket's heap minimum fully determines global
// order; the differential tests and fuzz target in calqueue_test.go prove
// the queue emits the exact sequence the reference heap does.
//
// Cost: the bucket count tracks the queue size (double above 2·nbuckets,
// halve below nbuckets/2), and each resize re-derives the bucket width from
// the live events' time spread, so on spread-out schedules buckets hold
// ~1–2 events and push/pop are O(1) amortized. A burst of k near-equal
// timestamps (an all-to-all exchange delivers n² of them) cannot be spread
// by any width and lands in a few buckets; the per-bucket heap keeps each
// push and pop O(log k) there, so one burst costs O(k log k), where a
// sorted bucket's insert and pop shifts would cost O(k²). Retired bucket
// arrays park on a free list and are handed back out after a resize, so
// steady-state operation allocates nothing.

// event is one scheduled callback, stored by value inside buckets. Exactly
// one of fn (closure API) or h (zero-alloc Handler API) is non-nil.
type event struct {
	at  float64
	seq uint64
	fn  func()
	h   Handler
}

// before is the engine's total order: time, then insertion sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

const (
	minBuckets = 4
	// virtCap bounds at/width so the uint64 slot conversion stays exact.
	virtCap = 1 << 50
)

type calQueue struct {
	buckets [][]event
	mask    uint64
	width   float64
	size    int

	// vslot is the dequeue cursor: the virtual slot number currently being
	// served. Its low bits select the physical bucket.
	vslot uint64

	// free holds retired bucket backing arrays for reuse across resizes.
	free [][]event
	// scratch is the rehash staging area, reused across resizes.
	scratch []event
}

func (q *calQueue) init() {
	q.buckets = make([][]event, minBuckets)
	q.mask = minBuckets - 1
	q.width = 1
	q.vslot = 0
}

// slotOf maps a timestamp to its virtual slot number. Push and pop both go
// through here, so the mapping is exactly consistent.
func (q *calQueue) slotOf(at float64) uint64 { return uint64(at / q.width) }

// push inserts ev into its bucket's heap.
func (q *calQueue) push(ev event) {
	if q.buckets == nil {
		q.init()
	}
	// Keep the slot arithmetic exact: times far beyond the current width's
	// range force a coarser width before insertion.
	for ev.at/q.width >= virtCap {
		q.rehash(len(q.buckets), q.width*1024)
	}
	vs := q.slotOf(ev.at)
	b := append(q.buckets[vs&q.mask], ev)
	siftUp(b)
	q.buckets[vs&q.mask] = b
	// An event behind the cursor (or into an empty queue) re-aims the sweep
	// so it cannot be missed.
	if q.size == 0 || vs < q.vslot {
		q.vslot = vs
	}
	q.size++
	if q.size > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// pop removes and returns the minimum (at, seq) event. peek leaves the
// cursor on the bucket whose head is that minimum.
func (q *calQueue) pop() (event, bool) {
	if _, ok := q.peek(); !ok {
		return event{}, false
	}
	return q.popFront(q.vslot & q.mask), true
}

// peek returns the minimum event's timestamp without removing it, leaving
// the cursor aimed at its bucket so the following pop is O(1) to find it.
func (q *calQueue) peek() (float64, bool) {
	if q.size == 0 {
		return 0, false
	}
	for scanned := 0; scanned < len(q.buckets); scanned++ {
		b := q.buckets[q.vslot&q.mask]
		if len(b) > 0 && q.slotOf(b[0].at) <= q.vslot {
			return b[0].at, true
		}
		q.vslot++
	}
	// A full sweep found nothing due: the queue is sparse relative to the
	// current year. Jump the cursor straight to the earliest head. Equal
	// timestamps share a bucket, so the minimum head is unique.
	var minEv *event
	for i := range q.buckets {
		if len(q.buckets[i]) == 0 {
			continue
		}
		if minEv == nil || q.buckets[i][0].before(minEv) {
			minEv = &q.buckets[i][0]
		}
	}
	q.vslot = q.slotOf(minEv.at)
	return minEv.at, true
}

// popFront removes the head (minimum) of bucket idx.
func (q *calQueue) popFront(idx uint64) event {
	b := q.buckets[idx]
	ev := b[0]
	last := len(b) - 1
	b[0] = b[last]
	b[last] = event{} // release the callback reference
	b = b[:last]
	siftDown(b)
	q.buckets[idx] = b
	q.size--
	if q.size < len(q.buckets)/2 && len(q.buckets) > minBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return ev
}

// siftUp restores the heap order of b after an append at its end.
func siftUp(b []event) {
	i := len(b) - 1
	ev := b[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&b[p]) {
			break
		}
		b[i] = b[p]
		i = p
	}
	b[i] = ev
}

// siftDown restores the heap order of b after its root was replaced.
func siftDown(b []event) {
	n := len(b)
	if n < 2 {
		return
	}
	ev := b[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && b[r].before(&b[c]) {
			c = r
		}
		if !b[c].before(&ev) {
			break
		}
		b[i] = b[c]
		i = c
	}
	b[i] = ev
}

// resize re-derives the bucket width from the live events' spread and
// redistributes them over newCount buckets.
func (q *calQueue) resize(newCount int) {
	if q.size == 0 {
		return
	}
	lo, hi := 0.0, 0.0
	first := true
	for _, b := range q.buckets {
		for i := range b {
			at := b[i].at
			if first {
				lo, hi, first = at, at, false
				continue
			}
			if at < lo {
				lo = at
			}
			if at > hi {
				hi = at
			}
		}
	}
	// Three average inter-event gaps per bucket keeps occupancy low without
	// spreading one burst of equal timestamps across the whole calendar.
	w := 3 * (hi - lo) / float64(q.size)
	if !(w > 0) {
		w = q.width // all events share one timestamp: any width works
	}
	// Keep the slot numbers exact for every queued time.
	for hi/w >= virtCap {
		w *= 1024
	}
	q.rehash(newCount, w)
}

// rehash rebuilds the bucket array with the given count and width. Events
// are staged into scratch, sorted once by (at, seq), and appended back in
// order, so every bucket comes out sorted — and a sorted slice is already a
// valid min-heap — without per-event sifting.
func (q *calQueue) rehash(newCount int, newWidth float64) {
	q.scratch = q.scratch[:0]
	for i, b := range q.buckets {
		q.scratch = append(q.scratch, b...)
		for j := range b {
			b[j] = event{}
		}
		q.free = append(q.free, b[:0])
		q.buckets[i] = nil
	}
	s := q.scratch
	sort.Slice(s, func(i, j int) bool { return s[i].before(&s[j]) })

	if cap(q.buckets) >= newCount {
		q.buckets = q.buckets[:newCount]
	} else {
		q.buckets = make([][]event, newCount)
	}
	for i := range q.buckets {
		if n := len(q.free); n > 0 {
			q.buckets[i] = q.free[n-1]
			q.free = q.free[:n-1]
		} else {
			q.buckets[i] = nil
		}
	}
	q.mask = uint64(newCount - 1)
	q.width = newWidth
	for _, ev := range s {
		idx := q.slotOf(ev.at) & q.mask
		q.buckets[idx] = append(q.buckets[idx], ev)
	}
	for i := range s {
		s[i] = event{} // drop callback references from the staging area
	}
	if len(s) > 0 {
		q.vslot = q.slotOf(s[0].at)
	}
}
