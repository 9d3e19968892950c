package simclock

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refEvent / refHeap are the engine's previous container/heap scheduler,
// kept verbatim as the ordering oracle for the calendar queue: both receive
// the same schedule and must emit the same (at, seq) sequence.
type refEvent struct {
	at  float64
	seq uint64
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// diffDriver feeds an identical schedule to the calendar queue and the
// reference heap and fails the test on the first divergent pop. times feeds
// pushes; popEvery interleaves pops so the cursor machinery (year sweeps,
// direct-search jumps, behind-cursor inserts) is exercised mid-stream.
func diffDriver(t *testing.T, times []float64, popEvery int) {
	t.Helper()
	var cq calQueue
	var rh refHeap
	var seq uint64
	lastPopped := math.Inf(-1)

	checkPop := func() {
		got, ok := cq.pop()
		if !ok {
			if rh.Len() != 0 {
				t.Fatalf("calendar queue empty, reference heap has %d", rh.Len())
			}
			return
		}
		want := heap.Pop(&rh).(*refEvent)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("divergence: calendar (at=%v seq=%d), heap (at=%v seq=%d)",
				got.at, got.seq, want.at, want.seq)
		}
		lastPopped = got.at
	}

	for i, at := range times {
		// An engine never schedules into the past (At clamps to Now).
		if at < lastPopped {
			at = lastPopped
		}
		seq++
		cq.push(event{at: at, seq: seq})
		heap.Push(&rh, &refEvent{at: at, seq: seq})
		if popEvery > 0 && i%popEvery == popEvery-1 {
			checkPop()
		}
	}
	for rh.Len() > 0 || cq.size > 0 {
		checkPop()
	}
	if _, ok := cq.pop(); ok {
		t.Fatal("calendar queue popped after drain")
	}
}

func TestCalendarVsHeapRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(800)
		times := make([]float64, n)
		mode := trial % 5
		for i := range times {
			switch mode {
			case 0: // uniform spread
				times[i] = rng.Float64() * 1000
			case 1: // heavy ties
				times[i] = float64(rng.Intn(8))
			case 2: // advancing clusters, like iteration completions
				times[i] = float64(i/10) + rng.Float64()*0.01
			case 3: // huge dynamic range, forces width widening
				times[i] = math.Exp(rng.Float64() * 30)
			default: // sub-second micro-gaps
				times[i] = rng.Float64() * 1e-6
			}
		}
		diffDriver(t, times, 1+trial%4)
	}
}

func TestCalendarVsHeapPushAllPopAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	times := make([]float64, 5000)
	for i := range times {
		times[i] = rng.Float64() * 50
	}
	diffDriver(t, times, 0)
}

// burstTimes models one all-to-all exchange of an n-worker federation: n
// compute-timer events spread over seconds, then n² message deliveries
// whose LAN arrival times differ only in nanosecond jitter, pushed in
// sender-major order, which is not time order. Against the timers' spread,
// no bucket width can separate the deliveries, so they pile into a few
// buckets: the dense-bucket regime of a federation-scale run.
func burstTimes(n int, rng *rand.Rand) []float64 {
	times := make([]float64, 0, n+n*n)
	for i := 0; i < n; i++ {
		times = append(times, rng.Float64()*10)
	}
	const arrival = 5.0 // every delivery of the burst lands just after t=5
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			times = append(times, arrival+float64((src*31+dst*17)%97)*1e-9)
		}
	}
	return times
}

// maxBucketLen returns the occupancy of the fullest bucket after pushing
// times into a fresh queue.
func maxBucketLen(times []float64) int {
	var cq calQueue
	for i, at := range times {
		cq.push(event{at: at, seq: uint64(i + 1)})
	}
	longest := 0
	for _, b := range cq.buckets {
		longest = max(longest, len(b))
	}
	return longest
}

// TestCalendarVsHeapBurst is the differential check for the dense-bucket
// regime: n² near-equal timestamps in non-monotone order, drained at the end
// and with interleaved pops, must come out in the reference heap's order.
func TestCalendarVsHeapBurst(t *testing.T) {
	for _, n := range []int{64, 256} {
		times := burstTimes(n, rand.New(rand.NewSource(int64(n))))
		// The schedule must actually reach the regime under test: far more
		// than the ~1–2 events per bucket of a spread-out schedule.
		if got := maxBucketLen(times); got < n*n/4 {
			t.Fatalf("n=%d: fullest bucket holds %d events, want a dense burst (>= %d)", n, got, n*n/4)
		}
		for _, popEvery := range []int{0, 3, n} {
			t.Run(fmt.Sprintf("n=%d/popEvery=%d", n, popEvery), func(t *testing.T) {
				diffDriver(t, times, popEvery)
			})
		}
	}
}

// fuzzBurstSeed encodes an n² burst in FuzzCalendarVsHeap's input format:
// one far-future timer, then n² timestamps drawn from five adjacent
// quantized values in non-monotone order, with a pop after every
// popEvery-th push when popEvery > 0. Seeds stay small (n=8 puts 64 events
// in one bucket): the fuzzer minimizes every interesting input derived from
// a seed, and kilobyte seeds spent the whole smoke budget minimizing.
func fuzzBurstSeed(n, popEvery int) []byte {
	data := []byte{127, 255}
	for i := 0; i < n*n; i++ {
		op := byte(100 + (i*7)%5)
		if popEvery > 0 && i%popEvery == popEvery-1 {
			op |= 0x80
		}
		data = append(data, op, 0)
	}
	return data
}

// FuzzCalendarVsHeap decodes the fuzz input as an operation stream — two
// bytes of timestamp plus one opcode bit for an interleaved pop — and
// differentially checks the calendar queue against the reference heap.
// Runs in make fuzz-smoke.
func FuzzCalendarVsHeap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 255, 255, 0})
	f.Add([]byte{9, 9, 9, 9, 9, 9})
	f.Add([]byte{0, 1, 128, 7, 64, 3, 32, 200, 16, 100})
	f.Add(fuzzBurstSeed(8, 0))
	f.Add(fuzzBurstSeed(8, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cq calQueue
		var rh refHeap
		var seq uint64
		last := 0.0
		for i := 0; i+1 < len(data); i += 2 {
			// Quantized times produce the tie storms that stress bucket
			// ordering; the byte-derived scale covers widths from micro-gaps
			// to year-jumping sparsity.
			at := float64(data[i]&0x7f) * (1 + float64(data[i+1])*37.3)
			if at < last {
				at = last
			}
			seq++
			cq.push(event{at: at, seq: seq})
			heap.Push(&rh, &refEvent{at: at, seq: seq})
			if data[i]&0x80 != 0 {
				got, ok := cq.pop()
				if !ok {
					t.Fatal("calendar queue empty while heap is not")
				}
				want := heap.Pop(&rh).(*refEvent)
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("divergence at op %d: calendar (%v,%d) heap (%v,%d)",
						i, got.at, got.seq, want.at, want.seq)
				}
				last = got.at
			}
		}
		for rh.Len() > 0 {
			got, ok := cq.pop()
			if !ok {
				t.Fatal("calendar queue drained early")
			}
			want := heap.Pop(&rh).(*refEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("drain divergence: calendar (%v,%d) heap (%v,%d)",
					got.at, got.seq, want.at, want.seq)
			}
		}
		if cq.size != 0 {
			t.Fatalf("calendar queue retains %d events after heap drained", cq.size)
		}
	})
}

// TestCalendarResizeDeterminism drives the queue through repeated grow and
// shrink cycles twice with an identical schedule and requires bit-identical
// pop sequences — the resize path (width re-derivation, staged sort, free
// list) must be a pure function of the schedule. Runs under -race via the
// Makefile race target.
func TestCalendarResizeDeterminism(t *testing.T) {
	run := func() []event {
		var cq calQueue
		var out []event
		var seq uint64
		rng := rand.New(rand.NewSource(3))
		last := 0.0
		for cycle := 0; cycle < 6; cycle++ {
			// grow: push a burst far above the resize-up threshold
			for i := 0; i < 500; i++ {
				seq++
				at := last + rng.Float64()*10
				cq.push(event{at: at, seq: seq})
			}
			// shrink: drain most of it, crossing resize-down thresholds
			for i := 0; i < 450; i++ {
				ev, ok := cq.pop()
				if !ok {
					t.Fatal("queue drained early")
				}
				last = ev.at
				out = append(out, event{at: ev.at, seq: ev.seq})
			}
		}
		for {
			ev, ok := cq.pop()
			if !ok {
				break
			}
			out = append(out, event{at: ev.at, seq: ev.seq})
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("pop counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].at != b[i].at || a[i].seq != b[i].seq {
			t.Fatalf("pop %d differs: (%v,%d) vs (%v,%d)", i, a[i].at, a[i].seq, b[i].at, b[i].seq)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at || (a[i].at == a[i-1].at && a[i].seq < a[i-1].seq) {
			t.Fatalf("pop %d out of order", i)
		}
	}
}

// TestCalendarBucketReuse checks the free list actually recycles retired
// bucket arrays: after a steady-state warmup, a push/pop cycle must not
// allocate.
func TestCalendarBucketReuse(t *testing.T) {
	var cq calQueue
	var seq uint64
	at := 0.0
	for i := 0; i < 4096; i++ {
		seq++
		at += 0.5
		cq.push(event{at: at, seq: seq})
	}
	for cq.size > 64 {
		cq.pop()
	}
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		at += 0.5
		cq.push(event{at: at, seq: seq})
		cq.pop()
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state push/pop allocates %.1f times per op", allocs)
	}
}

// BenchmarkCalQueueBurst pushes one all-to-all burst of k = n² near-equal
// arrivals (plus the n timers of burstTimes) into the queue and drains it.
// The per-bucket heaps cost O(log k) per event, so ns/event should stay
// roughly flat as k grows; growth linear in k means a bucket operation has
// gone O(k).
func BenchmarkCalQueueBurst(b *testing.B) {
	for _, n := range []int{32, 128, 256} {
		times := burstTimes(n, rand.New(rand.NewSource(1)))
		b.Run(fmt.Sprintf("k=%d", n*n), func(b *testing.B) {
			var cq calQueue
			for it := 0; it < b.N; it++ {
				for i, at := range times {
					cq.push(event{at: at, seq: uint64(i + 1)})
				}
				for cq.size > 0 {
					cq.pop()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(times)), "ns/event")
		})
	}
}
