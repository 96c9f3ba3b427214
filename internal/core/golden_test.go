package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/problem"
	"repro/internal/robust"
	"repro/internal/telemetry"
	"repro/internal/testfunc"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_k2.json from the current tree")

const goldenPath = "testdata/golden_k2.json"

// goldenDigest fingerprints one run: the SHA-256 of its final checkpoint JSON
// and of its iteration-event stream with the wall-clock fields zeroed.
type goldenDigest struct {
	Checkpoint string `json:"checkpoint"`
	Events     string `json:"events"`
}

// goldenSchedules are the proposal schedules every K=2 golden problem runs
// under: the exact loop, the incremental fit-skip schedule, and q=3 batches
// under both fantasy strategies (constant-liar answered newest-first).
var goldenSchedules = []string{"exact", "incremental", "batch-kb", "batch-cl"}

// goldenProblems are the K=2 catalog problems with the budgets they run at.
var goldenProblems = []struct {
	name   string
	budget float64
}{
	{"forrester", 10},
	{"constrained", 9},
	{"branin", 9},
	{"poweramp", 9},
}

// eventDigest hashes the iteration events of a telemetry ring in order, with
// FitMs/AcqMs zeroed so only the deterministic decision record remains. The
// Go-syntax rendering is used because bootstrap acquisition values may be
// infinite, which JSON cannot carry.
func eventDigest(ring *telemetry.Ring) string {
	h := sha256.New()
	for _, ev := range ring.Snapshot() {
		if ev.Iteration == nil {
			continue
		}
		it := *ev.Iteration
		it.FitMs, it.AcqMs = 0, 0
		fmt.Fprintf(h, "%#v\n", it)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkpointDigest hashes the checkpoint's serialized (Marshal) bytes.
func checkpointDigest(t *testing.T, ck *Checkpoint) string {
	t.Helper()
	b, err := ck.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// goldenCfg is fastCfg with telemetry into a fresh ring.
func goldenCfg(budget float64) (Config, *telemetry.Ring) {
	cfg := fastCfg(budget)
	ring := telemetry.NewRing(1 << 14)
	cfg.Telemetry = telemetry.NewRecorder(ring, 1)
	return cfg, ring
}

// runBatchGolden drives an engine through AskBatch(q)/TellByID. newestFirst
// answers the newest outstanding suggestion first (maximally out of order);
// otherwise the oldest.
func runBatchGolden(t *testing.T, eng *Engine, p problem.Problem, q int, newestFirst bool) {
	t.Helper()
	for {
		sugs, err := eng.AskBatch(context.Background(), q)
		if errors.Is(err, ErrBudgetExhausted) {
			return
		}
		if err != nil {
			t.Fatalf("AskBatch: %v", err)
		}
		s := sugs[0]
		if newestFirst {
			s = sugs[len(sugs)-1]
		}
		ev, everr := problem.EvaluateRich(p, s.X, s.Fid)
		if everr != nil {
			ev.Failed = true
		}
		if err := eng.TellByID(s.ID, ev); err != nil {
			t.Fatalf("TellByID(%s): %v", s.ID, err)
		}
	}
}

// runGolden executes one named golden scenario and returns its digest.
func runGolden(t *testing.T, problemName, schedule string, budget float64) goldenDigest {
	t.Helper()
	p, err := catalog.Lookup(problemName)
	if err != nil {
		t.Fatal(err)
	}
	cfg, ring := goldenCfg(budget)
	rng := rand.New(rand.NewSource(101))
	switch schedule {
	case "exact", "incremental":
		if schedule == "incremental" {
			cfg.Incremental = true
			cfg.RefitEvery = 3
		}
		var last *Checkpoint
		cfg.Checkpointer = func(ck *Checkpoint) error { last = ck; return nil }
		if _, err := Optimize(p, cfg, rng); err != nil {
			t.Fatal(err)
		}
		return goldenDigest{Checkpoint: checkpointDigest(t, last), Events: eventDigest(ring)}
	case "batch-kb", "batch-cl":
		cfg.Fantasy = FantasyKrigingBeliever
		if schedule == "batch-cl" {
			cfg.Fantasy = FantasyConstantLiar
		}
		eng, err := NewEngine(p, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		runBatchGolden(t, eng, p, 3, schedule == "batch-cl")
		return goldenDigest{Checkpoint: checkpointDigest(t, eng.Snapshot()), Events: eventDigest(ring)}
	}
	t.Fatalf("unknown schedule %q", schedule)
	return goldenDigest{}
}

// runGoldenAllLowFailures is the all-low-failures degradation scenario of
// TestFitFailureDegradesNotAborts: every cheap simulation fails, so every
// adaptive iteration falls back to random exploration.
func runGoldenAllLowFailures(t *testing.T) goldenDigest {
	t.Helper()
	ch := robust.NewChaos(testfunc.Forrester(), robust.ChaosConfig{
		Low:  robust.FidelityChaos{FailRate: 1},
		Seed: 23,
	})
	sp := robust.Wrap(ch, robust.Policy{MaxRetries: -1, Sleep: noSleep})
	cfg, ring := goldenCfg(6)
	cfg.MaxIterations = 4
	var last *Checkpoint
	cfg.Checkpointer = func(ck *Checkpoint) error { last = ck; return nil }
	if _, err := Optimize(sp, cfg, rand.New(rand.NewSource(29))); err != nil {
		t.Fatal(err)
	}
	return goldenDigest{Checkpoint: checkpointDigest(t, last), Events: eventDigest(ring)}
}

// runGoldenChaos runs the constrained problem under 30 % injected cheap
// failures with a 4-point low window on the incremental schedule, so fit
// failures, per-output degradations and cache invalidations all occur.
func runGoldenChaos(t *testing.T) goldenDigest {
	t.Helper()
	sp := chaoticProblem(testfunc.ConstrainedSynthetic(), 0.3, 17)
	cfg, ring := goldenCfg(8)
	cfg.MaxLowData = 4
	cfg.Incremental = true
	cfg.RefitEvery = 3
	var last *Checkpoint
	cfg.Checkpointer = func(ck *Checkpoint) error { last = ck; return nil }
	if _, err := Optimize(sp, cfg, rand.New(rand.NewSource(19))); err != nil {
		t.Fatal(err)
	}
	return goldenDigest{Checkpoint: checkpointDigest(t, last), Events: eventDigest(ring)}
}

// runGoldenHighBlackout fails every target-fidelity simulation, so the fused
// level never has data: every output of every adaptive iteration degrades to
// its low-fidelity surrogate, and on the incremental schedule the cache keeps
// serving low-only outputs while cheap rows arrive.
func runGoldenHighBlackout(t *testing.T, incremental bool) goldenDigest {
	t.Helper()
	ch := robust.NewChaos(testfunc.Forrester(), robust.ChaosConfig{
		High: robust.FidelityChaos{FailRate: 1},
		Seed: 41,
	})
	sp := robust.Wrap(ch, robust.Policy{MaxRetries: -1, Sleep: noSleep})
	cfg, ring := goldenCfg(12)
	cfg.MaxIterations = 10
	if incremental {
		cfg.Incremental = true
		cfg.RefitEvery = 3
	}
	var last *Checkpoint
	cfg.Checkpointer = func(ck *Checkpoint) error { last = ck; return nil }
	if _, err := Optimize(sp, cfg, rand.New(rand.NewSource(43))); err != nil && !errors.Is(err, ErrNoFeasible) {
		t.Fatal(err)
	}
	return goldenDigest{Checkpoint: checkpointDigest(t, last), Events: eventDigest(ring)}
}

// runGoldenResume kills a K=2 run at its third adaptive iteration and resumes
// it from the JSON round trip of that checkpoint with a fresh seed; the
// digest covers the resumed run's final checkpoint and its events.
func runGoldenResume(t *testing.T, problemName string, incremental bool) goldenDigest {
	t.Helper()
	mk := func() problem.Problem {
		p, err := catalog.Lookup(problemName)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg, _ := goldenCfg(8)
	if incremental {
		cfg.Incremental = true
		cfg.RefitEvery = 3
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mid []byte
	cfg.Checkpointer = func(ck *Checkpoint) error {
		if mid == nil && ck.Iter >= 3 {
			b, err := json.Marshal(ck)
			if err != nil {
				return err
			}
			mid = b
			cancel()
		}
		return nil
	}
	if _, err := OptimizeCtx(ctx, mk(), cfg, rand.New(rand.NewSource(103))); err != nil {
		t.Fatal(err)
	}
	if mid == nil {
		t.Fatal("run ended before its third adaptive iteration")
	}
	var ck Checkpoint
	if err := json.Unmarshal(mid, &ck); err != nil {
		t.Fatal(err)
	}
	rcfg, ring := goldenCfg(8)
	rcfg.Incremental, rcfg.RefitEvery = cfg.Incremental, cfg.RefitEvery
	var last *Checkpoint
	rcfg.Checkpointer = func(ck *Checkpoint) error { last = ck; return nil }
	if _, err := Resume(context.Background(), mk(), rcfg, rand.New(rand.NewSource(107)), &ck); err != nil {
		t.Fatal(err)
	}
	return goldenDigest{Checkpoint: checkpointDigest(t, last), Events: eventDigest(ring)}
}

// TestGoldenK2Trajectories pins classic two-fidelity behaviour to digests
// recorded before the two-fidelity engine path was folded into the fidelity
// ladder: every K=2 run must reproduce its final checkpoint bytes and its
// iteration-event stream (timings excluded) bit for bit. Regenerate with
// `go test ./internal/core -run TestGoldenK2Trajectories -update-golden` only
// when a trajectory change is intended.
func TestGoldenK2Trajectories(t *testing.T) {
	got := map[string]goldenDigest{}
	for _, prob := range goldenProblems {
		for _, sched := range goldenSchedules {
			name := prob.name + "/" + sched
			got[name] = runGolden(t, prob.name, sched, prob.budget)
		}
	}
	got["forrester/all-low-failures"] = runGoldenAllLowFailures(t)
	got["constrained/chaos-incremental"] = runGoldenChaos(t)
	got["forrester/high-blackout"] = runGoldenHighBlackout(t, false)
	got["forrester/high-blackout-incremental"] = runGoldenHighBlackout(t, true)
	got["constrained/resume"] = runGoldenResume(t, "constrained", false)
	got["branin/resume-incremental"] = runGoldenResume(t, "branin", true)

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
	var want map[string]goldenDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: golden scenario no longer runs", name)
		case g.Checkpoint != want[name].Checkpoint:
			t.Errorf("%s: final checkpoint bytes changed", name)
		case g.Events != want[name].Events:
			t.Errorf("%s: iteration-event stream changed", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d scenarios run, %d recorded", len(got), len(want))
	}
}
