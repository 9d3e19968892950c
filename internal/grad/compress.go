package grad

import (
	"sort"

	"dlion/internal/nn"
	"dlion/internal/stats"
)

// This file hosts the gradient-compression selectors the paper's related
// work section points at ("their compression algorithms can be placed in
// the data quality assurance module in DLion", §6): exact top-k selection
// with error feedback, and random-k sparsification. They slot into the
// same Selector interface as Max N, so any system preset can adopt them.

// TopK selects the k largest-magnitude gradient values per variable, where
// k is a fixed fraction of the variable's size (budget-driven when a link
// budget is supplied). Values not sent accumulate in an error-feedback
// buffer per peer, the standard correction that keeps sparsified SGD
// convergent (Alistarh et al., NeurIPS'18).
type TopK struct {
	// Fraction of each variable sent when no byte budget applies, (0, 1].
	Fraction float64
	// ErrorFeedback keeps and re-adds the unsent residual.
	ErrorFeedback bool

	residual map[int]map[string][]float32
}

// NewTopK returns a TopK selector sending the given fraction per variable,
// with error feedback enabled.
func NewTopK(fraction float64) *TopK {
	if fraction <= 0 || fraction > 1 {
		panic("grad: TopK requires 0 < fraction <= 1")
	}
	return &TopK{Fraction: fraction, ErrorFeedback: true,
		residual: map[int]map[string][]float32{}}
}

// Name implements Selector.
func (t *TopK) Name() string { return "topk" }

// Select implements Selector.
func (t *TopK) Select(to int, params []*nn.Param, budgetBytes int) []*Selection {
	peer := t.residual[to]
	if peer == nil {
		peer = map[string][]float32{}
		t.residual[to] = peer
	}
	// derive the per-variable fraction from the budget when present
	frac := t.Fraction
	if budgetBytes > 0 {
		total := 0
		for _, p := range params {
			total += p.G.Len()
		}
		if total > 0 {
			frac = float64(budgetBytes) / float64(total*sparseEntryBytes)
			if frac > 1 {
				frac = 1
			}
			if frac <= 0 {
				frac = 1.0 / float64(total)
			}
		}
	}
	out := make([]*Selection, 0, len(params))
	for _, p := range params {
		g := p.G.Data
		res := peer[p.Name]
		if t.ErrorFeedback {
			if res == nil {
				res = make([]float32, len(g))
				peer[p.Name] = res
			}
			for i, v := range g {
				res[i] += v
			}
			g = res
		}
		k := int(frac * float64(len(g)))
		if k < 1 {
			k = 1
		}
		if k >= len(g) {
			sel := &Selection{Var: p.Name, Total: len(g), Dense: append([]float32(nil), g...)}
			if t.ErrorFeedback {
				for i := range res {
					res[i] = 0
				}
			}
			out = append(out, sel)
			continue
		}
		idx := topKIndices(g, k)
		sel := &Selection{Var: p.Name, Total: len(g),
			Idx: make([]int32, 0, k), Val: make([]float32, 0, k)}
		for _, i := range idx {
			sel.Idx = append(sel.Idx, int32(i))
			sel.Val = append(sel.Val, g[i])
			if t.ErrorFeedback {
				res[i] = 0
			}
		}
		out = append(out, sel)
	}
	return out
}

// magBefore reports whether index a ranks strictly before index b in the
// selection order: larger |g| first, NaN above everything (a NaN gradient is
// a signal worth transmitting, and ranking it top keeps the order total),
// ascending index on ties. Because ties break on the index, this is a strict
// total order over distinct indices — the property quickselect's Hoare
// partition relies on.
func magBefore(g []float32, a, b int) bool {
	av, bv := abs32(g[a]), abs32(g[b])
	aNaN, bNaN := av != av, bv != bv
	switch {
	case aNaN && bNaN:
		return a < b
	case aNaN:
		return true
	case bNaN:
		return false
	case av != bv:
		return av > bv
	default:
		return a < b
	}
}

// topKIndices returns the indices of the k largest |values| under the
// magBefore order, ascending by index for cache-friendly application.
// Selection is O(n) expected (quickselect) plus O(k log k) to re-sort the
// chosen indices — the previous full sort.Slice was O(n log n) with an
// interface-call comparator on every element, and dominated TopK.Select on
// large variables.
func topKIndices(g []float32, k int) []int {
	idx := make([]int, len(g))
	for i := range idx {
		idx[i] = i
	}
	quickSelectTopK(g, idx, k)
	idx = idx[:k]
	sort.Ints(idx)
	return idx
}

// quickSelectTopK partitions idx so that its first k entries are the top k
// under magBefore (in unspecified internal order). Median-of-three Hoare
// quickselect; since magBefore is a strict total order over distinct
// indices, the partition needs no equal-element handling.
func quickSelectTopK(g []float32, idx []int, k int) {
	if k <= 0 || k >= len(idx) {
		return
	}
	lo, hi := 0, len(idx)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if magBefore(g, idx[mid], idx[lo]) {
			idx[lo], idx[mid] = idx[mid], idx[lo]
		}
		if magBefore(g, idx[hi], idx[lo]) {
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
		if magBefore(g, idx[hi], idx[mid]) {
			idx[mid], idx[hi] = idx[hi], idx[mid]
		}
		pivot := idx[mid]
		i, j := lo, hi
		for i <= j {
			for magBefore(g, idx[i], pivot) {
				i++
			}
			for magBefore(g, pivot, idx[j]) {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		// idx[lo..j] now rank before idx[i..hi]; recurse into the side
		// holding the k-th boundary.
		switch {
		case k-1 <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// RandomK sparsifies by sending k uniformly random coordinates per
// variable, scaled by len/k so the sparsified gradient is an unbiased
// estimator. A control baseline for magnitude-aware selection: it answers
// "does picking the *important* values matter, or just sending fewer?".
type RandomK struct {
	Fraction float64
	rng      *stats.RNG
}

// NewRandomK returns a RandomK selector with its own deterministic stream.
func NewRandomK(fraction float64, seed uint64) *RandomK {
	if fraction <= 0 || fraction > 1 {
		panic("grad: RandomK requires 0 < fraction <= 1")
	}
	return &RandomK{Fraction: fraction, rng: stats.NewRNG(seed)}
}

// Name implements Selector.
func (r *RandomK) Name() string { return "randomk" }

// Select implements Selector. The byte budget, when present, overrides the
// fraction exactly as in TopK.
func (r *RandomK) Select(_ int, params []*nn.Param, budgetBytes int) []*Selection {
	frac := r.Fraction
	if budgetBytes > 0 {
		total := 0
		for _, p := range params {
			total += p.G.Len()
		}
		if total > 0 {
			frac = float64(budgetBytes) / float64(total*sparseEntryBytes)
			if frac > 1 {
				frac = 1
			}
			if frac <= 0 {
				frac = 1.0 / float64(total)
			}
		}
	}
	out := make([]*Selection, 0, len(params))
	for _, p := range params {
		g := p.G.Data
		k := int(frac * float64(len(g)))
		if k < 1 {
			k = 1
		}
		if k >= len(g) {
			out = append(out, denseSelection(p))
			continue
		}
		scale := float32(len(g)) / float32(k)
		perm := r.rng.Perm(len(g))[:k]
		sort.Ints(perm)
		sel := &Selection{Var: p.Name, Total: len(g),
			Idx: make([]int32, 0, k), Val: make([]float32, 0, k)}
		for _, i := range perm {
			sel.Idx = append(sel.Idx, int32(i))
			sel.Val = append(sel.Val, g[i]*scale)
		}
		out = append(out, sel)
	}
	return out
}
