package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/fidelity"
	"repro/internal/problem"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// sessionRun is the outcome of one session, as the client saw it.
type sessionRun struct {
	Spec       sessionSpec
	Start, End int64 // unix ns
	Hash       string
	History    []obs
	Quality    quality
	SuggestMs  []float64 // adaptive proposals only
	ObserveMs  []float64
	Ops        int // calls into the system
	Checks     int // correctness checks run
	Failures   []string
	Timeline   *timeline // traced runs only
}

func (r *sessionRun) Wall() float64 { return float64(r.End-r.Start) / 1e9 }

func (r *sessionRun) fail(format string, args ...any) {
	r.Failures = append(r.Failures, r.Spec.ID+": "+fmt.Sprintf(format, args...))
}

// runInproc drives one session on an in-process engine through Ask (or
// AskBatch) and TellByID, checkpointing every observation durably into
// store. With cnt non-nil the session is traced: its problem and store are
// decorated, counting into cnt, and the engine's spans flow into a
// session-owned ring.
func runInproc(ctx context.Context, w *workload, store storage.Store, spec sessionSpec, cnt *counters) sessionRun {
	run := sessionRun{Spec: spec}
	p, err := catalog.Lookup(w.Problem)
	if err != nil {
		run.fail("%v", err)
		return run
	}
	cfg := w.Tune.coreConfig()
	var ring *telemetry.Ring
	if cnt != nil {
		run.Timeline = newTimeline()
		p = &timedProblem{Problem: p, tl: run.Timeline, cnt: cnt}
		store = &timedStore{Store: store, sessions: func(string) *timeline { return run.Timeline }, cnt: cnt}
		ring = telemetry.NewRing(1 << 15)
		cfg.Telemetry = telemetry.NewRecorder(ring, 1)
	}
	cfg.Checkpointer = core.StoreCheckpointer(store, spec.ID)
	ladder, err := fidelity.OfProblem(p)
	if err != nil {
		run.fail("%v", err)
		return run
	}

	run.Checks++ // the budget gate, checked on every issued suggestion
	run.Start = time.Now().UnixNano()
	eng, err := core.NewEngine(p, cfg, rand.New(rand.NewSource(spec.Seed)))
	if err != nil {
		run.fail("new engine: %v", err)
		return run
	}
	for {
		t0 := time.Now()
		var sugs []core.Suggestion
		if w.Batch > 1 {
			sugs, err = eng.AskBatch(ctx, w.Batch)
		} else {
			var s core.Suggestion
			if s, err = eng.Ask(ctx); err == nil {
				sugs = []core.Suggestion{s}
			}
		}
		t1 := time.Now()
		run.Ops++
		run.Timeline.add("core.ask", t0, t1)
		if errors.Is(err, core.ErrBudgetExhausted) {
			break
		}
		if err != nil {
			run.fail("ask: %v", err)
			break
		}
		// Every earlier suggestion was told before this call, so all of sugs
		// are new. The engine may only issue adaptive work while the cost
		// committed before it (spent plus outstanding) is below the budget.
		committed := eng.Progress().Cost
		adaptive := false
		for _, s := range sugs {
			if s.Iter >= 0 {
				adaptive = true
				if committed >= cfg.Budget+1e-9 {
					run.fail("%s issued with %.4f of budget %.4f committed", s.ID, committed, cfg.Budget)
				}
			}
			committed += ladder.Cost(int(s.Fid))
		}
		if adaptive {
			run.SuggestMs = append(run.SuggestMs, ms(t1.Sub(t0)))
		}
		evs := make([]problem.Evaluation, len(sugs))
		for i, s := range sugs {
			ev, everr := problem.EvaluateRich(p, s.X, s.Fid)
			if everr != nil {
				ev.Failed = true
			}
			evs[i] = ev
		}
		// A batch is reported newest first, so each TellByID retracts a
		// fantasy other than the oldest.
		for i := len(sugs) - 1; i >= 0; i-- {
			t0 := time.Now()
			err := eng.TellByID(sugs[i].ID, evs[i])
			t1 := time.Now()
			run.Ops++
			run.Timeline.add("core.tell", t0, t1)
			run.ObserveMs = append(run.ObserveMs, ms(t1.Sub(t0)))
			if err != nil {
				run.fail("tell %s: %v", sugs[i].ID, err)
			}
		}
		if len(run.Failures) > 0 {
			break
		}
	}
	run.End = time.Now().UnixNano()
	_ = store.Delete(storage.KindCheckpoint, spec.ID) // keep the store from growing over a run

	res, err := eng.Result()
	if err != nil && !errors.Is(err, core.ErrNoFeasible) {
		run.fail("result: %v", err)
	}
	if res != nil {
		run.History = fromCore(res.History)
		run.Hash = historyHash(run.History)
		run.Quality = score(run.History, ladder.Target())
	}
	if ring != nil {
		if ring.Dropped() > 0 {
			run.fail("trace ring dropped %d events", ring.Dropped())
		}
		addSpans(ring.Snapshot(), func(string) *timeline { return run.Timeline }, cnt, false)
	}
	return run
}

// addSpans puts the program's own spans on session timelines: gp.fit and
// optimize.msp always, engine.ask / engine.tell only when engine is true
// (in-process sessions time Ask and Tell from outside instead).
func addSpans(events []telemetry.Event, sessions func(trace string) *timeline, cnt *counters, engine bool) {
	for _, ev := range events {
		sp := ev.Span
		if sp == nil {
			continue
		}
		var layer string
		switch sp.Name {
		case "gp.fit", "optimize.msp":
			layer = sp.Name
		case "engine.ask":
			layer = "core.ask"
		case "engine.tell":
			layer = "core.tell"
		default:
			continue
		}
		if !engine && (layer == "core.ask" || layer == "core.tell") {
			continue
		}
		sessions(sp.Trace).addNs(layer, sp.StartUnixNs, sp.StartUnixNs+sp.DurNs)
		if sp.Name == "optimize.msp" {
			cnt.add("optimize.msp.starts", sp.Attrs["starts"])
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
