package mfgp

import (
	"math"
	"testing"
)

// TestAppendHighTruncateRoundTrip proves the two-level chain's fantasy cycle
// is exact: appending target-level observations and truncating back leaves
// fused predictions bit-identical.
func TestAppendHighTruncateRoundTrip(t *testing.T) {
	m := fitPedagogical(t, GaussHermite, 3)
	n0 := m.Level(1).TrainingSize()
	probes := [][]float64{{0.11}, {0.42}, {0.87}}
	muBefore := make([]float64, len(probes))
	vaBefore := make([]float64, len(probes))
	for i, p := range probes {
		muBefore[i], vaBefore[i] = m.Predict(p)
	}
	for _, x := range []float64{0.21, 0.63} {
		if err := m.AppendLevel(1, []float64{x}, pedagogicalHigh(x)); err != nil {
			t.Fatalf("append high: %v", err)
		}
	}
	if m.Level(1).TrainingSize() != n0+2 {
		t.Fatalf("high size %d, want %d", m.Level(1).TrainingSize(), n0+2)
	}
	// The appended points must actually influence the posterior.
	changed := false
	for i, p := range probes {
		mu, _ := m.Predict(p)
		if mu != muBefore[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("appended observations left every prediction unchanged")
	}
	if err := m.TruncateLevel(1, n0); err != nil {
		t.Fatalf("truncate high: %v", err)
	}
	for i, p := range probes {
		mu, va := m.Predict(p)
		if mu != muBefore[i] || va != vaBefore[i] {
			t.Fatalf("probe %d changed across append+truncate: µ %v vs %v", i, mu, muBefore[i])
		}
	}
}

// TestAppendHighTracksInterpolation checks the incremental path produces a
// model that roughly interpolates the appended observation, i.e. the bordered
// update carries real information and not just a resized factor.
func TestAppendHighTracksInterpolation(t *testing.T) {
	m := fitPedagogical(t, GaussHermite, 5)
	x := []float64{0.33}
	y := pedagogicalHigh(0.33)
	if err := m.AppendLevel(1, x, y); err != nil {
		t.Fatal(err)
	}
	mu, _ := m.Predict(x)
	if math.Abs(mu-y) > 0.05 {
		t.Fatalf("prediction %v far from appended observation %v", mu, y)
	}
	if err := m.AppendLevel(1, []float64{0.5, 0.5}, 0); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}
