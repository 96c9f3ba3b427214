package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {75, 75}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %g", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	// A change smaller than any histogram bucket still moves the estimate.
	s2 := append([]float64(nil), s...)
	s2[89] += 0.001
	if percentile(s2, 90) == percentile(s, 90) {
		t.Error("p90 ignored a small change in its sample")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, got  float64
		minBeyond  int
		wantBeyond int
	}{
		{n: 1000, want: 99, got: 99, minBeyond: 10, wantBeyond: 10},
		{n: 999, want: 99, got: 95, minBeyond: 10, wantBeyond: 49},
		{n: 100, want: 90, got: 90, minBeyond: 10, wantBeyond: 10},
		{n: 99, want: 90, got: 75, minBeyond: 10, wantBeyond: 24},
		{n: 140, want: 75, got: 75, minBeyond: 10, wantBeyond: 35},
		{n: 12, want: 90, got: 50, minBeyond: 10, wantBeyond: 6},
	} {
		p := tailPercentile(c.n, c.want, c.minBeyond)
		if p != c.got {
			t.Errorf("n=%d want p%g: got p%g, expected p%g", c.n, c.want, p, c.got)
		}
		if b := beyond(c.n, p); b != c.wantBeyond {
			t.Errorf("n=%d p%g: %d beyond, expected %d", c.n, p, b, c.wantBeyond)
		}
	}
}

func TestMedianMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if m := mean([]float64{1, 2, 3, 6}); m != 3 {
		t.Errorf("mean = %g", m)
	}
}

func TestAttributeNested(t *testing.T) {
	// Session [0,100): ask [10,60) holding fits [12,20) and [15,25) (in
	// parallel) and msp [30,50); tell [70,90) holding put [75,85);
	// evaluate [60,70).
	layers := map[string][]interval{
		"core.ask":         {{10, 60}},
		"gp.fit":           {{12, 20}, {15, 25}},
		"optimize.msp":     {{30, 50}},
		"core.tell":        {{70, 90}},
		"storage.put":      {{75, 85}},
		"problem.evaluate": {{60, 70}},
	}
	at := attribute(inprocLayers, layers, interval{0, 100})
	want := map[string]int64{
		"core.ask": 50 - 13 - 20, "gp.fit": 13, "optimize.msp": 20,
		"core.tell": 10, "storage.put": 10, "problem.evaluate": 10,
	}
	var sum int64
	for name, w := range want {
		if at.Self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, at.Self[name], w)
		}
		sum += at.Self[name]
	}
	if at.Unattributed != 20 || sum+at.Unattributed != at.Wall || at.Wall != 100 {
		t.Errorf("unattributed %d, self sum %d, wall %d", at.Unattributed, sum, at.Wall)
	}
	if at.Busy["gp.fit"] != 13 || at.Busy["core.ask"] != 50 {
		t.Errorf("busy gp.fit %d core.ask %d", at.Busy["gp.fit"], at.Busy["core.ask"])
	}
}

func TestAttributeClipsToParentAndWindow(t *testing.T) {
	// A put outside any tell (background work keyed to the session) and
	// work outside the session window never count.
	layers := map[string][]interval{
		"core.tell":   {{-10, 20}},
		"storage.put": {{15, 40}},
	}
	at := attribute(inprocLayers, layers, interval{0, 50})
	if at.Self["storage.put"] != 5 || at.Self["core.tell"] != 15 || at.Unattributed != 30 {
		t.Errorf("self put %d tell %d unattributed %d", at.Self["storage.put"], at.Self["core.tell"], at.Unattributed)
	}
}

func TestAttributeFleetDepths(t *testing.T) {
	layers := map[string][]interval{
		"client":      {{0, 100}},
		"gateway":     {{5, 95}},
		"server":      {{10, 90}},
		"core.tell":   {{20, 80}},
		"storage.put": {{30, 70}},
	}
	at := attribute(fleetLayers, layers, interval{0, 110})
	for name, w := range map[string]int64{"client": 10, "gateway": 10, "server": 20, "core.tell": 20, "storage.put": 40} {
		if at.Self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, at.Self[name], w)
		}
	}
	if at.Unattributed != 10 {
		t.Errorf("unattributed = %d", at.Unattributed)
	}
}

func TestUnionIntersect(t *testing.T) {
	u := union([]interval{{5, 8}, {1, 3}, {2, 4}, {8, 9}})
	if len(u) != 2 || u[0] != (interval{1, 4}) || u[1] != (interval{5, 9}) {
		t.Fatalf("union = %v", u)
	}
	x := intersect(u, []interval{{0, 2}, {3, 6}})
	if len(x) != 3 || x[0] != (interval{1, 2}) || x[1] != (interval{3, 4}) || x[2] != (interval{5, 6}) {
		t.Fatalf("intersect = %v", x)
	}
	if measure(x) != 3 {
		t.Fatalf("measure = %d", measure(x))
	}
}
