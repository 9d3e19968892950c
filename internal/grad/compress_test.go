package grad

import (
	"math"
	"sort"
	"testing"

	"dlion/internal/stats"
)

func TestTopKSelectsLargestMagnitudes(t *testing.T) {
	ps := makeParams(map[string][]float32{"a": {0.1, -5, 0.2, 3, -0.05, 1}})
	tk := NewTopK(0.5) // k = 3
	sels := tk.Select(0, ps, 0)
	if TotalCount(sels) != 3 {
		t.Fatalf("count %d", TotalCount(sels))
	}
	got := map[int32]float32{}
	for k, i := range sels[0].Idx {
		got[i] = sels[0].Val[k]
	}
	if got[1] != -5 || got[3] != 3 || got[5] != 1 {
		t.Fatalf("wrong selection: %v", got)
	}
	// indices ascending
	for k := 1; k < len(sels[0].Idx); k++ {
		if sels[0].Idx[k] <= sels[0].Idx[k-1] {
			t.Fatal("indices not ascending")
		}
	}
}

func TestTopKErrorFeedbackAccumulates(t *testing.T) {
	tk := NewTopK(0.25) // k=1 of 4
	ps := makeParams(map[string][]float32{"a": {1, 0.6, 0.6, 0.6}})
	s1 := tk.Select(0, ps, 0)
	if s1[0].Val[0] != 1 {
		t.Fatalf("first round should send the 1: %v", s1[0].Val)
	}
	// second round, same fresh gradient: coord 0's residual was cleared so
	// it offers 1, while coord 1 offers residual 0.6 + fresh 0.6 = 1.2 and
	// must win — that is the error feedback doing its job
	s2 := tk.Select(0, ps, 0)
	if s2[0].Idx[0] == 0 {
		t.Fatalf("error feedback ignored: resent coord 0 (%v)", s2[0])
	}
	if math.Abs(float64(s2[0].Val[0])-1.2) > 1e-6 {
		t.Fatalf("accumulated value %v, want 1.2", s2[0].Val[0])
	}
}

func TestTopKConservationWithFeedback(t *testing.T) {
	// everything fed is eventually sent or held in residual
	tk := NewTopK(0.3)
	rng := stats.NewRNG(2)
	var fed, sent float64
	vals := make([]float32, 40)
	for round := 0; round < 10; round++ {
		for i := range vals {
			vals[i] = float32(rng.NormFloat64())
			fed += float64(vals[i])
		}
		ps := makeParams(map[string][]float32{"a": vals})
		for _, s := range tk.Select(0, ps, 0) {
			for _, v := range s.Val {
				sent += float64(v)
			}
			for _, v := range s.Dense {
				sent += float64(v)
			}
		}
	}
	var pending float64
	for _, res := range tk.residual[0] {
		for _, v := range res {
			pending += float64(v)
		}
	}
	if math.Abs(fed-(sent+pending)) > 1e-3 {
		t.Fatalf("conservation violated: fed %v vs sent+pending %v", fed, sent+pending)
	}
}

func TestTopKBudgetDrivesFraction(t *testing.T) {
	rng := stats.NewRNG(3)
	g := make([]float32, 1000)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	ps := makeParams(map[string][]float32{"a": g})
	tk := NewTopK(1.0)
	small := TotalCount(tk.Select(0, ps, 800)) // ~100 entries
	tk2 := NewTopK(1.0)
	large := TotalCount(tk2.Select(0, ps, 4000)) // ~500 entries
	if small >= large {
		t.Fatalf("budget not respected: %d vs %d", small, large)
	}
	if small < 50 || small > 150 {
		t.Fatalf("small selection %d far from budget/8=100", small)
	}
}

func TestTopKFullFractionDense(t *testing.T) {
	ps := makeParams(map[string][]float32{"a": {1, 2}})
	tk := NewTopK(1.0)
	sels := tk.Select(0, ps, 0)
	if sels[0].Dense == nil {
		t.Fatal("fraction 1 should send dense")
	}
	// residual cleared after dense send
	s2 := tk.Select(0, ps, 0)
	if s2[0].Dense[0] != 1 {
		t.Fatalf("residual not cleared: %v", s2[0].Dense)
	}
}

func TestRandomKUnbiased(t *testing.T) {
	// E[sparsified] = gradient: average many draws of a constant gradient
	g := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	ps := makeParams(map[string][]float32{"a": g})
	rk := NewRandomK(0.25, 5)
	sum := make([]float64, len(g))
	const rounds = 4000
	for r := 0; r < rounds; r++ {
		for _, s := range rk.Select(0, ps, 0) {
			for k, i := range s.Idx {
				sum[i] += float64(s.Val[k])
			}
		}
	}
	for i, want := range g {
		got := sum[i] / rounds
		if math.Abs(got-float64(want))/float64(want) > 0.15 {
			t.Fatalf("biased at %d: mean %v, want %v", i, got, want)
		}
	}
}

func TestRandomKCount(t *testing.T) {
	g := make([]float32, 100)
	for i := range g {
		g[i] = 1
	}
	ps := makeParams(map[string][]float32{"a": g})
	rk := NewRandomK(0.1, 1)
	sels := rk.Select(0, ps, 0)
	if TotalCount(sels) != 10 {
		t.Fatalf("count %d, want 10", TotalCount(sels))
	}
	// distinct ascending indices
	seen := map[int32]bool{}
	for _, i := range sels[0].Idx {
		if seen[i] {
			t.Fatal("duplicate index")
		}
		seen[i] = true
	}
}

func TestCompressConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"topk0":    func() { NewTopK(0) },
		"topk2":    func() { NewTopK(2) },
		"randomk0": func() { NewRandomK(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
	if NewTopK(0.5).Name() != "topk" || NewRandomK(0.5, 1).Name() != "randomk" {
		t.Fatal("names")
	}
}

// TestQuickselectMatchesSortReference pins topKIndices (quickselect) to the
// full-sort reference under the magBefore order, on exactly the inputs where
// a selection algorithm can silently diverge: ties by magnitude, duplicate
// values, signed pairs, NaN gradients, and all-equal arrays. Because ties
// break on the index, both paths must return the identical index set in the
// identical (ascending) order.
func TestQuickselectMatchesSortReference(t *testing.T) {
	nan := float32(math.NaN())
	cases := map[string][]float32{
		"ties":       {1, -1, 1, -1, 1, -1, 1, -1},
		"duplicates": {3, 3, 3, 2, 2, 2, 1, 1, 1, 0, 0},
		"allEqual":   {7, 7, 7, 7, 7, 7},
		"allZero":    {0, 0, 0, 0, 0},
		"oneNaN":     {1, 2, nan, 4, 0.5, -3},
		"manyNaN":    {nan, 1, nan, -2, nan, 0},
		"negZero":    {float32(math.Copysign(0, -1)), 0, 1, -1, 0},
		"single":     {42},
	}
	for name, g := range cases {
		for k := 1; k <= len(g); k++ {
			got := topKIndices(g, k)
			want := topKIndicesSort(g, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: len %d vs %d", name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s k=%d: quickselect %v, sort reference %v", name, k, got, want)
				}
			}
		}
	}
}

// TestQuickselectMatchesSortRandom is the property version: random gradients
// with injected zeros, duplicates, and NaNs across many sizes and cut points.
func TestQuickselectMatchesSortRandom(t *testing.T) {
	rng := stats.NewRNG(99)
	nan := float32(math.NaN())
	for trial := 0; trial < 200; trial++ {
		n := 1 + int(rng.Uint64()%300)
		g := make([]float32, n)
		for i := range g {
			switch rng.Uint64() % 8 {
			case 0:
				g[i] = 0
			case 1:
				g[i] = nan
			case 2:
				g[i] = 1.5 // force cross-index magnitude ties
			default:
				g[i] = float32(rng.NormFloat64())
			}
		}
		k := 1 + int(rng.Uint64()%uint64(n))
		got := topKIndices(g, k)
		want := topKIndicesSort(g, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d n=%d k=%d: quickselect %v, sort reference %v", trial, n, k, got, want)
			}
		}
	}
}

// topKIndicesSort is the reference selection: a full deterministic sort under
// the same magBefore order. Kept for equivalence tests and as the benchmark
// baseline for the quickselect path.
func topKIndicesSort(g []float32, k int) []int {
	idx := make([]int, len(g))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return magBefore(g, idx[a], idx[b])
	})
	idx = idx[:k]
	sort.Ints(idx)
	return idx
}
