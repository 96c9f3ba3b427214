// Package testfunc provides synthetic two-fidelity benchmark problems used
// by the test suite, the figures and the ablation benchmarks: the
// pedagogical 1-D pair from Perdikaris et al. (2017) that the paper's
// Figures 1–2 are built on, the classic Forrester, Branin, Currin and Park
// multi-fidelity pairs, and a small constrained problem with a known
// optimum for exercising the constrained-BO machinery.
package testfunc

import (
	"fmt"
	"math"

	"repro/internal/problem"
)

// Func is a synthetic two-fidelity problem.
type Func struct {
	name     string
	lo, hi   []float64
	nc       int
	high     func(x []float64) (float64, []float64)
	low      func(x []float64) (float64, []float64)
	costLow  float64
	costHigh float64
}

var _ problem.Problem = (*Func)(nil)

// Name implements problem.Problem.
func (f *Func) Name() string { return f.name }

// Dim implements problem.Problem.
func (f *Func) Dim() int { return len(f.lo) }

// Bounds implements problem.Problem.
func (f *Func) Bounds() (lo, hi []float64) {
	return append([]float64(nil), f.lo...), append([]float64(nil), f.hi...)
}

// NumConstraints implements problem.Problem.
func (f *Func) NumConstraints() int { return f.nc }

// Evaluate implements problem.Problem.
func (f *Func) Evaluate(x []float64, fid problem.Fidelity) problem.Evaluation {
	if len(x) != len(f.lo) {
		panic(fmt.Sprintf("testfunc %s: point dim %d != %d", f.name, len(x), len(f.lo)))
	}
	var obj float64
	var cons []float64
	if fid == problem.High {
		obj, cons = f.high(x)
	} else {
		obj, cons = f.low(x)
	}
	return problem.Evaluation{Objective: obj, Constraints: cons}
}

// Cost implements problem.Problem.
func (f *Func) Cost(fid problem.Fidelity) float64 {
	if fid == problem.Low {
		return f.costLow
	}
	return f.costHigh
}

// HighFn returns the high-fidelity objective value at x (test helper).
func (f *Func) HighFn(x []float64) float64 { v, _ := f.high(x); return v }

// LowFn returns the low-fidelity objective value at x (test helper).
func (f *Func) LowFn(x []float64) float64 { v, _ := f.low(x); return v }

// PedagogicalLow is f_l(x) = sin(8πx), the cheap level of the Perdikaris
// pedagogical pair used in the paper's Figures 1 and 2.
func PedagogicalLow(x float64) float64 { return math.Sin(8 * math.Pi * x) }

// PedagogicalHigh is f_h(x) = (x − √2)·f_l(x)², the expensive level of the
// pedagogical pair: a nonlinear (quadratic) transform of the low-fidelity
// output with an x-dependent scale.
func PedagogicalHigh(x float64) float64 {
	l := PedagogicalLow(x)
	return (x - math.Sqrt2) * l * l
}

// Pedagogical returns the unconstrained 1-D pedagogical pair on [0, 1] with
// a 1:20 low:high cost ratio.
func Pedagogical() *Func {
	return &Func{
		name: "pedagogical",
		lo:   []float64{0}, hi: []float64{1},
		high:    func(x []float64) (float64, []float64) { return PedagogicalHigh(x[0]), nil },
		low:     func(x []float64) (float64, []float64) { return PedagogicalLow(x[0]), nil },
		costLow: 0.05, costHigh: 1,
	}
}

// Forrester returns the classic 1-D Forrester pair on [0, 1]:
//
//	f_h(x) = (6x−2)²·sin(12x−4),
//	f_l(x) = 0.5·f_h(x) + 10(x−0.5) − 5.
func Forrester() *Func {
	fh := func(x float64) float64 {
		t := 6*x - 2
		return t * t * math.Sin(12*x-4)
	}
	return &Func{
		name: "forrester",
		lo:   []float64{0}, hi: []float64{1},
		high:    func(x []float64) (float64, []float64) { return fh(x[0]), nil },
		low:     func(x []float64) (float64, []float64) { return 0.5*fh(x[0]) + 10*(x[0]-0.5) - 5, nil },
		costLow: 0.1, costHigh: 1,
	}
}

// braninValue is the standard Branin function on [−5,10]×[0,15].
func braninValue(x1, x2 float64) float64 {
	const (
		a = 1
		r = 6
		s = 10
	)
	b := 5.1 / (4 * math.Pi * math.Pi)
	c := 5 / math.Pi
	t := 1 / (8 * math.Pi)
	u := x2 - b*x1*x1 + c*x1 - r
	return a*u*u + s*(1-t)*math.Cos(x1) + s
}

// BraninMF returns a 2-D Branin multi-fidelity pair. The low fidelity is a
// shifted, rescaled Branin with an additive linear trend — a standard
// construction in the multi-fidelity literature.
func BraninMF() *Func {
	return &Func{
		name: "branin-mf",
		lo:   []float64{-5, 0}, hi: []float64{10, 15},
		high: func(x []float64) (float64, []float64) { return braninValue(x[0], x[1]), nil },
		low: func(x []float64) (float64, []float64) {
			v := 0.5*braninValue(x[0]-1, x[1]+1) + 10*(x[0]+x[1])/25 - 20
			return v, nil
		},
		costLow: 0.1, costHigh: 1,
	}
}

// currinValue is the Currin exponential function on [0,1]².
func currinValue(x1, x2 float64) float64 {
	factor := 1.0
	if x2 > 0 {
		factor = 1 - math.Exp(-1/(2*x2))
	}
	num := 2300*x1*x1*x1 + 1900*x1*x1 + 2092*x1 + 60
	den := 100*x1*x1*x1 + 500*x1*x1 + 4*x1 + 20
	return factor * num / den
}

// CurrinMF returns the standard Currin exponential multi-fidelity pair on
// [0,1]² (the low fidelity is the four-point average smoother).
func CurrinMF() *Func {
	return &Func{
		name: "currin-mf",
		lo:   []float64{0, 0}, hi: []float64{1, 1},
		high: func(x []float64) (float64, []float64) { return currinValue(x[0], x[1]), nil },
		low: func(x []float64) (float64, []float64) {
			x1, x2 := x[0], x[1]
			m := x2 - 0.05
			if m < 0 {
				m = 0
			}
			v := 0.25*(currinValue(x1+0.05, x2+0.05)+currinValue(x1+0.05, m)) +
				0.25*(currinValue(x1-0.05, x2+0.05)+currinValue(x1-0.05, m))
			return v, nil
		},
		costLow: 0.1, costHigh: 1,
	}
}

// parkValue is the Park (1991) function on [0,1]⁴ (x1 nudged away from 0).
func parkValue(x []float64) float64 {
	x1 := math.Max(x[0], 1e-6)
	x2, x3, x4 := x[1], x[2], x[3]
	t1 := x1 / 2 * (math.Sqrt(1+(x2+x3*x3)*x4/(x1*x1)) - 1)
	t2 := (x1 + 3*x4) * math.Exp(1+math.Sin(x3))
	return t1 + t2
}

// ParkMF returns the standard Park 4-D multi-fidelity pair.
func ParkMF() *Func {
	return &Func{
		name: "park-mf",
		lo:   []float64{0, 0, 0, 0}, hi: []float64{1, 1, 1, 1},
		high: func(x []float64) (float64, []float64) { return parkValue(x), nil },
		low: func(x []float64) (float64, []float64) {
			v := (1+math.Sin(x[0])/10)*parkValue(x) - 2*x[0] + x[1]*x[1] + x[2]*x[2] + 0.5
			return v, nil
		},
		costLow: 0.1, costHigh: 1,
	}
}

// boreholeHigh is the classic 8-D borehole water-flow model (m³/yr):
// x = (rw, r, Tu, Hu, Tl, Hl, L, Kw).
func boreholeHigh(x []float64) float64 {
	rw, r, tu, hu, tl, hl, l, kw := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	lnr := math.Log(r / rw)
	return 2 * math.Pi * tu * (hu - hl) /
		(lnr * (1 + 2*l*tu/(lnr*rw*rw*kw) + tu/tl))
}

// boreholeLow is the standard cheap borehole variant (Xiong et al.): the
// 2π factor becomes 5 and the unity term becomes 1.5.
func boreholeLow(x []float64) float64 {
	rw, r, tu, hu, tl, hl, l, kw := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	lnr := math.Log(r / rw)
	return 5 * tu * (hu - hl) /
		(lnr * (1.5 + 2*l*tu/(lnr*rw*rw*kw) + tu/tl))
}

// BoreholeMF returns the 8-D borehole multi-fidelity pair on its standard
// domain — the highest-dimensional synthetic pair in the suite, useful for
// stressing the surrogate stack between the 5-D PA and the 36-D charge pump.
func BoreholeMF() *Func {
	return &Func{
		name:    "borehole-mf",
		lo:      []float64{0.05, 100, 63070, 990, 63.1, 700, 1120, 9855},
		hi:      []float64{0.15, 50000, 115600, 1110, 116, 820, 1680, 12045},
		high:    func(x []float64) (float64, []float64) { return boreholeHigh(x), nil },
		low:     func(x []float64) (float64, []float64) { return boreholeLow(x), nil },
		costLow: 0.1, costHigh: 1,
	}
}

// ConstrainedSynthetic returns a 2-D constrained pair with a known optimum:
//
//	minimize  x1 + x2            over [0,1]²
//	s.t.      0.2 − x1·x2 < 0,
//
// whose optimum is x1 = x2 = √0.2 ≈ 0.4472 with objective 2√0.2 ≈ 0.8944.
// The low fidelity adds a smooth nonlinear bias to both outputs, mimicking
// the short-transient bias of a cheap circuit simulation.
func ConstrainedSynthetic() *Func {
	return &Func{
		name: "constrained-synthetic",
		lo:   []float64{0, 0}, hi: []float64{1, 1},
		nc: 1,
		high: func(x []float64) (float64, []float64) {
			return x[0] + x[1], []float64{0.2 - x[0]*x[1]}
		},
		low: func(x []float64) (float64, []float64) {
			obj := x[0] + x[1] + 0.3*math.Sin(5*(x[0]+x[1]))
			con := 0.2 - x[0]*x[1] + 0.05*math.Cos(3*x[0])
			return obj, []float64{con}
		},
		costLow: 0.1, costHigh: 1,
	}
}

// ConstrainedSyntheticOptimum returns the known optimum of
// ConstrainedSynthetic (point and objective value).
func ConstrainedSyntheticOptimum() ([]float64, float64) {
	v := math.Sqrt(0.2)
	return []float64{v, v}, 2 * v
}

// Hartmann3 returns the single-fidelity 3-D Hartmann function (identical at
// both fidelities except for a 0.9 scale and small shift at low fidelity);
// used by higher-dimensional smoke tests.
func Hartmann3() *Func {
	alpha := [4]float64{1.0, 1.2, 3.0, 3.2}
	A := [4][3]float64{{3, 10, 30}, {0.1, 10, 35}, {3, 10, 30}, {0.1, 10, 35}}
	P := [4][3]float64{
		{0.3689, 0.1170, 0.2673},
		{0.4699, 0.4387, 0.7470},
		{0.1091, 0.8732, 0.5547},
		{0.0381, 0.5743, 0.8828},
	}
	h := func(x []float64) float64 {
		s := 0.0
		for i := 0; i < 4; i++ {
			inner := 0.0
			for j := 0; j < 3; j++ {
				d := x[j] - P[i][j]
				inner += A[i][j] * d * d
			}
			s += alpha[i] * math.Exp(-inner)
		}
		return -s
	}
	return &Func{
		name: "hartmann3",
		lo:   []float64{0, 0, 0}, hi: []float64{1, 1, 1},
		high: func(x []float64) (float64, []float64) { return h(x), nil },
		low: func(x []float64) (float64, []float64) {
			shifted := []float64{x[0] + 0.02, x[1] - 0.02, x[2]}
			return 0.9*h(shifted) + 0.1, nil
		},
		costLow: 0.1, costHigh: 1,
	}
}

// New builds a custom synthetic pair; exported for tests and examples that
// need bespoke correlation structure.
func New(name string, lo, hi []float64, nc int,
	high, low func(x []float64) (float64, []float64), costLow, costHigh float64) *Func {
	return &Func{name: name, lo: lo, hi: hi, nc: nc, high: high, low: low,
		costLow: costLow, costHigh: costHigh}
}

// LadderFunc is a synthetic problem with K >= 2 fidelity rungs. Rung k is
// levels[k] with relative cost costs[k]; the last level is the full-accuracy
// target. It implements problem.MultiFidelity so the engine derives a
// K-rung ladder from it.
type LadderFunc struct {
	name   string
	lo, hi []float64
	nc     int
	levels []func(x []float64) (float64, []float64)
	costs  []float64
}

var (
	_ problem.Problem       = (*LadderFunc)(nil)
	_ problem.MultiFidelity = (*LadderFunc)(nil)
)

// NewLadder builds a custom K-rung synthetic problem. levels and costs must
// have equal length >= 2, with costs ascending and the last equal to the
// target cost (conventionally 1).
func NewLadder(name string, lo, hi []float64, nc int,
	levels []func(x []float64) (float64, []float64), costs []float64) *LadderFunc {
	if len(levels) < 2 || len(levels) != len(costs) {
		panic(fmt.Sprintf("testfunc %s: need matching levels/costs with >= 2 rungs, got %d/%d",
			name, len(levels), len(costs)))
	}
	return &LadderFunc{name: name, lo: lo, hi: hi, nc: nc, levels: levels, costs: costs}
}

// Name implements problem.Problem.
func (f *LadderFunc) Name() string { return f.name }

// Dim implements problem.Problem.
func (f *LadderFunc) Dim() int { return len(f.lo) }

// Bounds implements problem.Problem.
func (f *LadderFunc) Bounds() (lo, hi []float64) {
	return append([]float64(nil), f.lo...), append([]float64(nil), f.hi...)
}

// NumConstraints implements problem.Problem.
func (f *LadderFunc) NumConstraints() int { return f.nc }

// NumFidelities implements problem.MultiFidelity.
func (f *LadderFunc) NumFidelities() int { return len(f.levels) }

// rung clamps a fidelity to a valid rung index: anything at or above the top
// rung evaluates at full accuracy (so problem.High still means "accurate"
// for callers unaware of the ladder), anything below rung 0 at rung 0.
func (f *LadderFunc) rung(fid problem.Fidelity) int {
	k := int(fid)
	if k < 0 {
		return 0
	}
	if k >= len(f.levels) {
		return len(f.levels) - 1
	}
	return k
}

// Evaluate implements problem.Problem.
func (f *LadderFunc) Evaluate(x []float64, fid problem.Fidelity) problem.Evaluation {
	if len(x) != len(f.lo) {
		panic(fmt.Sprintf("testfunc %s: point dim %d != %d", f.name, len(x), len(f.lo)))
	}
	obj, cons := f.levels[f.rung(fid)](x)
	return problem.Evaluation{Objective: obj, Constraints: cons}
}

// Cost implements problem.Problem.
func (f *LadderFunc) Cost(fid problem.Fidelity) float64 { return f.costs[f.rung(fid)] }

// Forrester3 returns a 3-rung Forrester ladder on [0, 1]: the classic high
// and low levels of Forrester() plus a medium level between them,
//
//	f_m(x) = 0.75·f_h(x) + 5(x−0.5) − 2,
//
// at relative costs 0.1 : 0.25 : 1. The bottom and top rungs are exactly the
// two-fidelity pair, so a TwoFidelityView of this problem reproduces
// Forrester() (modulo the name).
func Forrester3() *LadderFunc {
	fh := func(x float64) float64 {
		t := 6*x - 2
		return t * t * math.Sin(12*x-4)
	}
	return NewLadder("forrester3",
		[]float64{0}, []float64{1}, 0,
		[]func(x []float64) (float64, []float64){
			func(x []float64) (float64, []float64) { return 0.5*fh(x[0]) + 10*(x[0]-0.5) - 5, nil },
			func(x []float64) (float64, []float64) { return 0.75*fh(x[0]) + 5*(x[0]-0.5) - 2, nil },
			func(x []float64) (float64, []float64) { return fh(x[0]), nil },
		},
		[]float64{0.1, 0.25, 1})
}
