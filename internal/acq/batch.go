package acq

import (
	"math"

	"repro/internal/parallel"
)

// EvalBatch evaluates a scalar acquisition over a candidate grid on up to
// workers goroutines (0 = default, 1 = serial). Slot i receives exactly
// f(xs[i]) — the output is bit-identical to the serial loop for any worker
// count as long as f is a pure function, which every acquisition built from
// the library's surrogate posteriors is. f must be safe for concurrent calls
// when workers != 1.
func EvalBatch(workers int, f func([]float64) float64, xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	parallel.ForEach(parallel.Workers(workers), len(xs), func(i int) {
		out[i] = f(xs[i])
	})
	return out
}

// EvalBatchPosterior fans a surrogate posterior over a candidate grid,
// returning per-point means and variances with the same determinism contract
// as EvalBatch.
func EvalBatchPosterior(workers int, p Posterior, xs [][]float64) (means, variances []float64) {
	means = make([]float64, len(xs))
	variances = make([]float64, len(xs))
	parallel.ForEach(parallel.Workers(workers), len(xs), func(i int) {
		means[i], variances[i] = p(xs[i], nil, nil)
	})
	return means, variances
}

// ArgMax returns the index of the largest finite value in vals, breaking
// ties toward the lowest index (the deterministic reduction used after a
// parallel EvalBatch). It returns −1 when vals holds no finite value.
func ArgMax(vals []float64) int {
	best := -1
	bestV := math.Inf(-1)
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if best == -1 || v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
