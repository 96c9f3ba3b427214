package experiments

import (
	"testing"

	"repro/internal/core"
)

func TestCompareSignificance(t *testing.T) {
	mk := func(objs ...float64) *AlgoStats {
		a := &AlgoStats{Name: "x"}
		for _, o := range objs {
			a.Results = append(a.Results, fakeResult(o, true, 1))
		}
		return a
	}
	same := mk(1, 2, 3, 4, 5, 6, 7, 8)
	if p := CompareSignificance(same, same); p < 0.9 {
		t.Fatalf("identical distributions p = %v", p)
	}
	better := mk(1, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7)
	worse := mk(9, 9.1, 9.2, 9.3, 9.4, 9.5, 9.6, 9.7)
	if p := CompareSignificance(better, worse); p > 0.01 {
		t.Fatalf("separated distributions p = %v", p)
	}
}

func TestCompareSignificanceInfeasibleRanksWorst(t *testing.T) {
	feas := &AlgoStats{Name: "a", Results: []*core.Result{
		fakeResult(1, true, 1), fakeResult(2, true, 1), fakeResult(3, true, 1),
		fakeResult(1.5, true, 1), fakeResult(2.5, true, 1), fakeResult(1.2, true, 1),
	}}
	infeas := &AlgoStats{Name: "b", Results: []*core.Result{
		fakeResult(0.1, false, 1), fakeResult(0.2, false, 1), fakeResult(0.3, false, 1),
		fakeResult(0.4, false, 1), fakeResult(0.5, false, 1), fakeResult(0.6, false, 1),
	}}
	if p := CompareSignificance(feas, infeas); p > 0.05 {
		t.Fatalf("all-infeasible arm should rank strictly worse: p = %v", p)
	}
}
