package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		tailQ float64
		tail  float64
	}{
		{5, 1, 5},          // too few for any percentile: the maximum
		{19, 1, 19},        // p50 would leave only 9 beyond
		{20, 0.5, 10},      // p50 leaves 10 beyond
		{100, 0.9, 90},     // p90 leaves 10 beyond, p99 only 1
		{1000, 0.99, 990},  // p99 leaves 10 beyond
		{9999, 0.99, 9900}, // p99.9 would leave 9.999
		{10000, 0.999, 9990},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailQ != c.tailQ || s.Tail != c.tail {
			t.Errorf("n=%d: got N=%d tail p%g=%g, want tail p%g=%g", c.n, s.N, s.TailQ*100, s.Tail, c.tailQ*100, c.tail)
		}
	}
	if m := summarize(seq(9)).Median; m != 5 {
		t.Errorf("median of 1..9 = %g, want 5", m)
	}
	if m := summarize(seq(4)).Median; m != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", m)
	}
}

func TestTailAtFallsBackToSupportedTail(t *testing.T) {
	if got := tailAt(seq(1000), 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	// 200 samples support p90 but not p99: the tail is reported at p90.
	if got := tailAt(seq(200), 0.99); got != 180 {
		t.Errorf("p99 of 1..200 = %g, want the p90 fallback 180", got)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of nothing = %g, want 0", m)
	}
}

// A stalled operation must not delay the dispatch of later ones: the loop
// is open, so every operation leaves at its due time.
func TestOpenLoopDispatchesOnScheduleDespiteStall(t *testing.T) {
	const rate, count = 200.0, 40
	start := time.Now().Add(5 * time.Millisecond)
	fired := make([]time.Time, count)
	dues := make([]time.Time, count)
	late := openLoop(start, rate, count, func(i int, due time.Time) {
		fired[i], dues[i] = time.Now(), due
		if i == 0 {
			time.Sleep(100 * time.Millisecond) // the stall
		}
	})
	if len(late) != count {
		t.Fatalf("got %d lateness samples, want %d", len(late), count)
	}
	for i := 0; i < count; i++ {
		want := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !dues[i].Equal(want) {
			t.Fatalf("op %d due %v, want %v", i, dues[i].Sub(start), want.Sub(start))
		}
		if fired[i].Before(dues[i]) {
			t.Errorf("op %d fired %v before its due time", i, dues[i].Sub(fired[i]))
		}
		if late[i] < 0 {
			t.Errorf("op %d lateness %g < 0", i, late[i])
		}
	}
	// The whole schedule spans 195 ms; with a serialised generator the
	// 100 ms stall would push the last dispatch past 295 ms.
	if d := fired[count-1].Sub(start); d > 260*time.Millisecond {
		t.Errorf("last op dispatched %v after start: the stall delayed the schedule", d)
	}
	if s := summarize(late); s.Median > 0.02 {
		t.Errorf("median generator lateness %gs", s.Median)
	}
}
