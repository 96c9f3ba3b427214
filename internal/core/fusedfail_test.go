package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/problem"
	"repro/internal/telemetry"
	"repro/internal/testfunc"
)

// countLevel0Fits counts the completed gp.fit spans over the d-dimensional
// design space (level-0 fits; fused levels train over d+1 inputs).
func countLevel0Fits(ring *telemetry.Ring, d int) int {
	n := 0
	for _, ev := range ring.Snapshot() {
		if ev.Span != nil && ev.Span.Name == "gp.fit" && ev.Span.Attrs["dim"] == float64(d) {
			n++
		}
	}
	return n
}

// TestFusedLevelFailureDegradesToLowOnly injects a wrong-width row at the
// front of the target rung's training set, so every output's fused-level fit
// fails (and so does its frozen-hyperparameter retry) while level 0 stays
// healthy. Every output must degrade to low-fidelity-only with a "fusion fit:"
// reason and be served by the level-0 GP it already trained — no second
// level-0 fit. At K=2 the proposal itself is pinned to the value the
// two-fidelity engine produced for this state.
func TestFusedLevelFailureDegradesToLowOnly(t *testing.T) {
	cases := []struct {
		name  string
		p     problem.Problem
		cfg   Config
		wantX []uint64 // float64 bits of the pinned proposal; nil = unpinned
	}{
		{"K=2", testfunc.ConstrainedSynthetic(), fastCfg(20), []uint64{0x3febb5780a321ccf, 0x3fe900c999c71312}},
		{"K=3", testfunc.Forrester3(), ladderCfg(20), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring := telemetry.NewRing(1 << 14)
			rec := telemetry.NewRecorder(ring, 1)
			cfg := tc.cfg
			cfg.Telemetry = rec
			eng, err := NewEngine(tc.p, cfg, rand.New(rand.NewSource(47)))
			if err != nil {
				t.Fatal(err)
			}
			// Run two adaptive iterations so every level holds warm
			// hyperparameters and the frozen retry is attempted.
			for eng.st.iter < 2 {
				s, err := eng.Ask(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				ev, _ := problem.EvaluateRich(tc.p, s.X, s.Fid)
				if err := eng.Tell(s.X, s.Fid, ev); err != nil {
					t.Fatal(err)
				}
			}
			st := eng.st
			bad := make([]float64, st.nOut)
			for k := range bad {
				bad[k] = 1e6 // never the incumbent
			}
			top := st.ds(st.ladder.Target())
			top.X = append([][]float64{st.high.X[0][:st.d-1]}, top.X...)
			top.Y = append([][]float64{bad}, top.Y...)

			nDeg := len(st.res.Degradations)
			fitsBefore := countLevel0Fits(ring, st.d)
			span := rec.StartSpan("test.propose")
			x, _, _ := st.propose(st.iter, span, false)
			span.End()

			deg := st.res.Degradations[nDeg:]
			if len(deg) != st.nOut {
				t.Fatalf("degradations %+v, want one low-only entry per output", deg)
			}
			for k, d := range deg {
				if d.Stage != DegradeLowOnly || d.Output != k || !strings.HasPrefix(d.Reason, "fusion fit: ") {
					t.Fatalf("output %d degradation %+v, want %s with a fusion fit reason", k, d, DegradeLowOnly)
				}
			}
			if got := countLevel0Fits(ring, st.d) - fitsBefore; got != st.nOut {
				t.Fatalf("%d level-0 fits for %d outputs: the low-only fallback refit level 0", got, st.nOut)
			}
			if tc.wantX != nil {
				for j, b := range tc.wantX {
					if math.Float64bits(x[j]) != b {
						t.Fatalf("proposal x = %v, want %v", x, math.Float64frombits(b))
					}
				}
			}
		})
	}
}
