package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/storage"
	"repro/internal/telemetry"
)

// testWorkload is a cheap in-process workload with adaptive proposals at
// two rungs.
var testWorkload = workload{
	Name: "test", Problem: "forrester",
	Tune: tuning{Budget: 6.5, InitLow: 6, InitHigh: 3, MSPStarts: 3, MSPIters: 10, GPMaxIter: 20},
}

func TestProblemAndStoreDecoratorsAreTransparent(t *testing.T) {
	ctx := context.Background()
	for _, w := range []workload{testWorkload, func() workload { w := testWorkload; w.Problem, w.Batch = "forrester3", 2; return w }()} {
		spec := newSpec(&w, 3, 0, 0)
		bare := runInproc(ctx, &w, storage.NewMem(storage.MemConfig{}), spec, nil)
		cnt := newCounters()
		traced := runInproc(ctx, &w, storage.NewMem(storage.MemConfig{}), spec, cnt)
		for _, r := range []sessionRun{bare, traced} {
			if len(r.Failures) > 0 {
				t.Fatalf("%s: %v", w.Problem, r.Failures)
			}
		}
		if bare.Hash == "" || bare.Hash != traced.Hash {
			t.Fatalf("%s: decorated trajectory %s differs from bare %s", w.Problem, traced.Hash, bare.Hash)
		}
		if len(traced.SuggestMs) == 0 {
			t.Fatalf("%s: no adaptive proposal; the test exercises nothing", w.Problem)
		}
		got := cnt.snapshot()
		evals := got["problem.evaluate.rung0.calls"] + got["problem.evaluate.rung1.calls"] + got["problem.evaluate.rung2.calls"]
		if int(evals) != len(traced.History) || got["storage.put.ckpt.calls"] < float64(len(traced.History)) {
			t.Fatalf("%s: counted %v evaluations and %v checkpoints for %d observations", w.Problem, evals, got["storage.put.ckpt.calls"], len(traced.History))
		}
		if w.Problem == "forrester3" && got["problem.evaluate.rung2.calls"] == 0 {
			t.Fatalf("rung 2 of a 3-rung ladder was not counted by index: %v", got)
		}
	}
}

func TestFleetDecoratorsAreTransparent(t *testing.T) {
	ctx := context.Background()
	w := testWorkload
	w.Fleet = true
	spec := newSpec(&w, 5, 0, 0)
	run := func(ft *fleetTrace) sessionRun {
		f, err := startFleet(ft)
		if err != nil {
			t.Fatal(err)
		}
		defer f.close()
		fc := newFleetClient(f.url)
		defer fc.tr.CloseIdleConnections()
		r := runFleet(ctx, &w, f, fc, spec, telemetry.NewTracer(nil, 1))
		if len(r.Failures) > 0 {
			t.Fatal(r.Failures)
		}
		return r
	}
	bare := run(nil)
	ft := &fleetTrace{cnt: newCounters(), ring: telemetry.NewRing(1 << 14),
		byTrace: make(map[string]*timeline), byID: make(map[string]*timeline)}
	traced := run(ft)
	if bare.Hash != traced.Hash {
		t.Fatalf("decorated fleet trajectory %s differs from bare %s", traced.Hash, bare.Hash)
	}
	if err := verifyInproc(ctx, &w, bare); err != nil {
		t.Fatal(err)
	}
	// Every hop saw the session: its trace reached the replicas' handlers
	// and spans, and its checkpoints reached the store.
	addSpans(ft.ring.Snapshot(), ft.session, ft.cnt, true)
	for _, layer := range []string{"client", "gateway", "server", "core.ask", "core.tell", "gp.fit", "optimize.msp", "storage.put", "problem.evaluate"} {
		if traced.Timeline.calls[layer] == 0 {
			t.Errorf("layer %s never reached the session's timeline", layer)
		}
	}
	at := traced.Timeline.attribute(fleetLayers, traced.Start, traced.End)
	var sum int64
	for _, v := range at.Self {
		sum += v
	}
	if sum+at.Unattributed != at.Wall || at.Unattributed < 0 {
		t.Fatalf("self %d + unattributed %d != wall %d", sum, at.Unattributed, at.Wall)
	}
}

func TestHandlerDecoratorCountsRoutes(t *testing.T) {
	cnt := newCounters()
	h := &timedHandler{
		next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodDelete {
				w.WriteHeader(http.StatusNotFound)
			}
		}),
		layer: "server", sessions: func(string) *timeline { return nil }, cnt: cnt,
	}
	for _, c := range []struct{ method, path string }{
		{"POST", "/v1/sessions"}, {"GET", "/v1/sessions/a/suggest"}, {"POST", "/v1/sessions/a/observations"},
		{"GET", "/v1/sessions/a/status"}, {"GET", "/v1/sessions/a/history"}, {"DELETE", "/v1/sessions/a"},
		{"GET", "/v1/healthz"},
	} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(c.method, c.path, nil))
	}
	got := cnt.snapshot()
	for _, r := range serverRoutes {
		if got["server."+r+".requests"] != 1 {
			t.Errorf("route %s counted %v times", r, got["server."+r+".requests"])
		}
	}
	if got["server.requests"] != 6 || got["server.responses_4xx"] != 1 {
		t.Errorf("requests %v, 4xx %v", got["server.requests"], got["server.responses_4xx"])
	}
}
