package core

import (
	"dlion/internal/stats"
)

// computeRCP derives a worker's relative compute power from profiling
// measurements: iteration seconds are fitted against batch size by linear
// regression (§3.2), and RCP is the number of samples the worker can
// process per unit time, i.e. the reciprocal of the per-sample slope. A
// degenerate or non-positive fit (all-equal batch sizes, dominating noise)
// falls back to a throughput estimate from the largest measured batch so
// the controller always produces something usable.
func computeRCP(batchSizes, seconds []float64) float64 {
	fit, err := stats.LinearRegression(batchSizes, seconds)
	if err == nil && fit.Slope > 0 {
		return 1 / fit.Slope
	}
	// fallback: crude throughput at the largest batch
	bestB, bestT := 0.0, 0.0
	for i, b := range batchSizes {
		if b > bestB {
			bestB, bestT = b, seconds[i]
		}
	}
	if bestB > 0 && bestT > 0 {
		return bestB / bestT
	}
	return 1
}

// minLBS floors every worker's share of the global batch.
const minLBS = 1

// lbsShares implements Eq. 5: LBS_i = GBS · RCP_i / Σ_j RCP_j, floored at
// minLBS per worker. rcp maps worker id to its latest reported RCP; workers
// without a report get the mean of the known ones (cold start).
func lbsShares(gbs int, n int, rcp map[int]float64, minLBS int) []int {
	shares := make([]int, n)
	filled := make([]float64, n)
	var sum, known float64
	for i := 0; i < n; i++ {
		if v, ok := rcp[i]; ok && v > 0 {
			filled[i] = v
			sum += v
			known++
		}
	}
	mean := 1.0
	if known > 0 {
		mean = sum / known
	}
	total := 0.0
	for i := 0; i < n; i++ {
		if filled[i] == 0 {
			filled[i] = mean
		}
		total += filled[i]
	}
	assigned := 0
	for i := 0; i < n; i++ {
		s := int(float64(gbs) * filled[i] / total)
		if s < minLBS {
			s = minLBS
		}
		shares[i] = s
		assigned += s
	}
	// distribute the rounding remainder to the most powerful workers so
	// Σ LBS_i tracks GBS
	for assigned < gbs {
		best := 0
		for i := 1; i < n; i++ {
			if filled[i] > filled[best] {
				best = i
			}
		}
		shares[best]++
		assigned++
		filled[best] *= 0.999 // spread ties
	}
	return shares
}

// profileBatches is the ladder of batch sizes the LBS controller measures.
func profileBatches(initialLBS int) []int {
	b := initialLBS
	if b < 4 {
		b = 4
	}
	return []int{b / 2, b, b * 2, b * 4}
}
