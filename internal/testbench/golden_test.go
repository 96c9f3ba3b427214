package testbench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/problem"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_measurements.json from the current tree")

const goldenPath = "testdata/golden_measurements.json"

// goldenCases are the testbench/rung pairs whose measurements are pinned,
// each over its own seeded Latin-hypercube designs. The full-grid charge pump
// runs 27 corners per design, so it gets few designs.
var goldenCases = []struct {
	name    string
	prob    problem.Problem
	fid     problem.Fidelity
	designs int
}{
	{"poweramp/low", NewPowerAmp(), problem.Low, 24},
	{"poweramp/high", NewPowerAmp(), problem.High, 16},
	{"poweramp3/rung0", NewPowerAmp3(), 0, 8},
	{"poweramp3/rung1", NewPowerAmp3(), 1, 8},
	{"poweramp3/rung2", NewPowerAmp3(), 2, 8},
	{"chargepump/low", NewChargePump(), problem.Low, 12},
	{"chargepump/high", NewChargePump(), problem.High, 3},
	{"chargepump3/rung0", NewChargePump3(), 0, 6},
	{"chargepump3/rung1", NewChargePump3(), 1, 3},
	{"chargepump3/rung2", NewChargePump3(), 2, 2},
	{"opamp/low", NewOpAmp(), problem.Low, 16},
	{"opamp/high", NewOpAmp(), problem.High, 16},
}

// measurementDigest hashes the IEEE-754 bits of every objective and
// constraint, plus the failure flag, over n seeded random designs.
func measurementDigest(p problem.Problem, f problem.Fidelity, n int, seed int64) string {
	lo, hi := p.Bounds()
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, x := range stats.LatinHypercube(rand.New(rand.NewSource(seed)), lo, hi, n) {
		e := p.Evaluate(x, f)
		put(e.Objective)
		for _, c := range e.Constraints {
			put(c)
		}
		if e.Failed {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenMeasurements pins every testbench's measurements bit for bit, so
// a change to the simulator's storage or solver that is meant to keep its
// arithmetic cannot shift a single objective or constraint. Regenerate with
// `go test ./internal/testbench -run TestGoldenMeasurements -update-golden`
// only when a measurement change is intended.
func TestGoldenMeasurements(t *testing.T) {
	got := map[string]string{}
	for i, c := range goldenCases {
		got[c.name] = measurementDigest(c.prob, c.fid, c.designs, int64(1000+i))
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: golden case no longer runs", name)
		} else if g != want[name] {
			t.Errorf("%s: measurements changed", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d cases run, %d recorded", len(got), len(want))
	}
}
