package optimize

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// multimodal is a 2-D surface with many local maxima — the worst case for a
// worker-count-dependent argmax.
func multimodal(x, grad []float64) float64 {
	grad[0] = 5*math.Cos(5*x[0])*math.Cos(4*x[1]) - 0.2*x[0]
	grad[1] = -4*math.Sin(5*x[0])*math.Sin(4*x[1]) - 0.2*x[1]
	return math.Sin(5*x[0])*math.Cos(4*x[1]) - 0.1*(x[0]*x[0]+x[1]*x[1])
}

// TestMaximizeMSPParallelDeterminism pins the acquisition maximizer: the
// selected optimum and the run's statistics must be identical for Workers=1
// and Workers=8 across seeds, including the tie-breaking among equally good
// local optima, and MSPStats.Evals must count every objective call.
func TestMaximizeMSPParallelDeterminism(t *testing.T) {
	box := NewBox([]float64{-2, -2}, []float64{2, 2})
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		run := func(workers int) ([]float64, float64, MSPStats) {
			rng := rand.New(rand.NewSource(seed))
			var calls atomic.Int64
			f := func(x, grad []float64) float64 {
				calls.Add(1)
				return multimodal(x, grad)
			}
			var st MSPStats
			x, v := MaximizeMSP(rng, f, box, []float64{0.3, -0.2}, nil,
				MSPConfig{Starts: 12, LocalIter: 30, Workers: workers, Stats: &st})
			if int64(st.Evals) != calls.Load() {
				t.Fatalf("seed %d, workers %d: Stats.Evals %d, objective called %d times",
					seed, workers, st.Evals, calls.Load())
			}
			return x, v, st
		}
		x1, f1, st1 := run(1)
		x8, f8, st8 := run(8)
		if st1 != st8 {
			t.Fatalf("seed %d: stats differ: %+v vs %+v", seed, st1, st8)
		}
		if math.Float64bits(f1) != math.Float64bits(f8) {
			t.Fatalf("seed %d: objective differs: %v vs %v", seed, f1, f8)
		}
		for j := range x1 {
			if math.Float64bits(x1[j]) != math.Float64bits(x8[j]) {
				t.Fatalf("seed %d: x[%d] differs: %v vs %v", seed, j, x1[j], x8[j])
			}
		}
	}
}

// TestMaximizeMSPAllDivergedFallsBack covers the non-finite guard: when every
// local search produces NaN, the maximizer must still return an in-box point
// (the clipped first start) instead of a NaN coordinate vector.
func TestMaximizeMSPAllDivergedFallsBack(t *testing.T) {
	box := NewBox([]float64{0, 0}, []float64{1, 1})
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		nan := func(x, grad []float64) float64 {
			calls.Add(1)
			for i := range grad {
				grad[i] = math.NaN()
			}
			return math.NaN()
		}
		rng := rand.New(rand.NewSource(6))
		var st MSPStats
		x, _ := MaximizeMSP(rng, nan, box, nil, nil,
			MSPConfig{Starts: 5, LocalIter: 10, Workers: workers, Stats: &st})
		if len(x) != 2 || !box.Contains(x) {
			t.Fatalf("workers=%d: fallback point out of box: %v", workers, x)
		}
		if st.Diverged != 5 || st.BestStart != -1 || int64(st.Evals) != calls.Load() {
			t.Fatalf("workers=%d: stats %+v after %d objective calls", workers, st, calls.Load())
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("workers=%d: non-finite coordinate %d: %v", workers, j, v)
			}
		}
	}
}

// TestDEParallelEvalDeterminism pins the synchronous-generation DE variant:
// for a fixed seed, the evolved optimum is bit-identical for every worker
// count (the variant freezes the generation-start population so trial
// generation, evaluation order, and selection do not depend on scheduling).
func TestDEParallelEvalDeterminism(t *testing.T) {
	box := NewBox([]float64{-3, -3, -3}, []float64{3, 3, 3})
	sphere := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v * v
		}
		return s
	}
	for _, seed := range []int64{1, 2, 3} {
		run := func(workers int) ([]float64, float64) {
			rng := rand.New(rand.NewSource(seed))
			return DE(rng, sphere, box, DEConfig{
				PopSize: 16, MaxGen: 25, ParallelEval: true, Workers: workers,
			})
		}
		x1, f1 := run(1)
		x8, f8 := run(8)
		if math.Float64bits(f1) != math.Float64bits(f8) {
			t.Fatalf("seed %d: best value differs: %v vs %v", seed, f1, f8)
		}
		for j := range x1 {
			if math.Float64bits(x1[j]) != math.Float64bits(x8[j]) {
				t.Fatalf("seed %d: best x[%d] differs: %v vs %v", seed, j, x1[j], x8[j])
			}
		}
		if f1 > 0.5 {
			t.Fatalf("seed %d: synchronous DE failed to optimize sphere: %v", seed, f1)
		}
	}
}

// TestDEParallelEvalRespectsBudget checks the batched evaluator against
// MaxEvals: the callback (serialized in index order) must fire at most
// MaxEvals times, and the unevaluated tail must never win selection.
func TestDEParallelEvalRespectsBudget(t *testing.T) {
	box := NewBox([]float64{-1, -1}, []float64{1, 1})
	f := func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] }
	count := 0
	const maxEvals = 37
	x, best := DE(rand.New(rand.NewSource(4)), f, box, DEConfig{
		PopSize: 10, MaxGen: 50, MaxEvals: maxEvals,
		ParallelEval: true, Workers: 4,
		Callback: func([]float64, float64) { count++ },
	})
	if count != maxEvals {
		t.Fatalf("callback fired %d times; want exactly %d", count, maxEvals)
	}
	if math.IsInf(best, 1) || len(x) != 2 {
		t.Fatalf("budgeted run returned unusable best: %v at %v", best, x)
	}
}
