package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/catalog"
	"repro/internal/client"
	"repro/internal/fidelity"
	"repro/internal/gateway"
	"repro/internal/problem"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// fleetReplicas is the number of sharded server replicas behind the gateway.
const fleetReplicas = 2

// fleet is a loopback deployment: sharded replicas over one shared store,
// fronted by a gateway, each behind its own listener.
type fleet struct {
	store   storage.Store
	servers []*server.Server
	gw      *gateway.Gateway
	https   []*http.Server
	serving sync.WaitGroup
	url     string

	// Traced fleets only.
	trace    *fleetTrace
	upstream *countingTransport
}

// fleetTrace routes what the decorators and spans see to session
// timelines: by trace ID (HTTP handlers, spans) and by session ID (store).
type fleetTrace struct {
	cnt  *counters
	ring *telemetry.Ring

	mu      sync.Mutex
	byTrace map[string]*timeline
	byID    map[string]*timeline
}

func (ft *fleetTrace) bind(trace, id string, tl *timeline) {
	ft.mu.Lock()
	ft.byTrace[trace], ft.byID[id] = tl, tl
	ft.mu.Unlock()
}

func (ft *fleetTrace) session(trace string) *timeline {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.byTrace[trace]
}

func (ft *fleetTrace) sessionByID(id string) *timeline {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.byID[id]
}

// startFleet brings a fleet up over a fresh in-memory store. With ft
// non-nil every layer is decorated and the replicas and gateway record spans
// into ft.ring.
func startFleet(ft *fleetTrace) (*fleet, error) {
	mem := storage.NewMem(storage.MemConfig{})
	f := &fleet{store: mem, trace: ft}
	var store storage.Store = mem
	if ft != nil {
		store = &timedStore{Store: mem, sessions: ft.sessionByID, cnt: ft.cnt}
	}
	var urls []string
	var err error
	for i := 0; i < fleetReplicas; i++ {
		cfg := server.Config{Store: store, ReplicaID: fmt.Sprintf("r%d", i)}
		if ft != nil {
			cfg.Telemetry = telemetry.NewRecorder(ft.ring, 1)
		}
		srv, err := server.New(cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		var h http.Handler = srv
		if ft != nil {
			h = &timedHandler{next: srv, layer: "server", sessions: ft.session, cnt: ft.cnt}
		}
		u, err := f.serve(h)
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	gcfg := gateway.Config{
		Replicas: urls,
		Ring:     shard.RingConfig{Seed: 7},
		Client:   &http.Client{Transport: newTransport()},
	}
	if ft != nil {
		f.upstream = &countingTransport{next: gcfg.Client.Transport}
		gcfg.Client = &http.Client{Transport: f.upstream}
		gcfg.Telemetry = telemetry.NewRecorder(ft.ring, 1)
	}
	if f.gw, err = gateway.New(gcfg); err != nil {
		f.close()
		return nil, err
	}
	var h http.Handler = f.gw
	if ft != nil {
		h = &timedHandler{next: f.gw, layer: "gateway", sessions: ft.session, cnt: ft.cnt}
	}
	if f.url, err = f.serve(h); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second}
}

// serve starts h on a loopback listener and returns its base URL.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.https = append(f.https, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener, the gateway and the replicas, and waits for
// the serving goroutines.
func (f *fleet) close() {
	for _, hs := range f.https {
		_ = hs.Close()
	}
	f.serving.Wait()
	if f.gw != nil {
		f.gw.Close()
	}
	for _, s := range f.servers {
		_ = s.Close()
	}
	_ = f.store.Close()
}

// fleetClient is one closed-loop client of the fleet.
type fleetClient struct {
	cl       *client.Client
	attempts *countingTransport
	tr       *http.Transport
}

func newFleetClient(url string) *fleetClient {
	tr := newTransport()
	rt := &countingTransport{next: tr}
	return &fleetClient{
		cl:       client.New(url, client.WithHTTPClient(&http.Client{Transport: rt}), client.WithRetries(8)),
		attempts: rt,
		tr:       tr,
	}
}

// runFleet drives one session through the gateway: create, suggest and
// observe until the budget is spent, then status, history (for the
// lost-ack audit) and delete.
func runFleet(ctx context.Context, w *workload, f *fleet, fc *fleetClient, spec sessionSpec, tracer *telemetry.Tracer) sessionRun {
	run := sessionRun{Spec: spec}
	p, err := catalog.Lookup(w.Problem)
	if err != nil {
		run.fail("%v", err)
		return run
	}
	ladder, err := fidelity.OfProblem(p)
	if err != nil {
		run.fail("%v", err)
		return run
	}
	if f.trace != nil {
		run.Timeline = newTimeline()
		p = &timedProblem{Problem: p, tl: run.Timeline, cnt: f.trace.cnt}
		// The session's own root span gives every request it makes, on
		// every hop, a trace ID that names the session.
		root := tracer.Start("session")
		ctx = telemetry.ContextWithSpan(ctx, root)
		f.trace.bind(root.Context().TraceID(), spec.ID, run.Timeline)
	}
	call := func(what string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		run.Timeline.add("client", t0, time.Now())
		run.Ops++
		if err != nil {
			run.fail("%s: %v", what, err)
		}
		return err
	}

	run.Start = time.Now().UnixNano()
	if call("create", func() error {
		_, err := fc.cl.CreateSession(ctx, w.Tune.request(spec.ID, w.Problem, spec.Seed))
		return err
	}) != nil {
		run.End = time.Now().UnixNano()
		return run
	}
	acks := 0
	for {
		var sug api.Suggestion
		t0 := time.Now()
		if call("suggest", func() (err error) { sug, err = fc.cl.Suggest(ctx, spec.ID); return }) != nil {
			break
		}
		if sug.Done {
			break
		}
		if sug.Iter >= 0 {
			run.SuggestMs = append(run.SuggestMs, ms(time.Since(t0)))
		}
		ev, everr := problem.EvaluateRich(p, sug.X, problem.Fidelity(sug.Fidelity))
		if everr != nil {
			ev.Failed = true
		}
		t0 = time.Now()
		err := call("observe", func() error {
			_, err := fc.cl.Observe(ctx, spec.ID, api.Observation{
				X: sug.X, Fidelity: sug.Fidelity,
				Objective: ev.Objective, Constraints: ev.Constraints, Failed: ev.Failed,
			})
			return err
		})
		run.ObserveMs = append(run.ObserveMs, ms(time.Since(t0)))
		if err != nil {
			break
		}
		acks++
	}
	var st api.StatusReply
	var hist api.HistoryReply
	if len(run.Failures) == 0 &&
		call("status", func() (err error) { st, err = fc.cl.Status(ctx, spec.ID); return }) == nil &&
		call("history", func() (err error) { hist, err = fc.cl.History(ctx, spec.ID); return }) == nil {
		_ = call("delete", func() error { return fc.cl.Delete(ctx, spec.ID) })
	}
	run.End = time.Now().UnixNano()
	if len(run.Failures) > 0 {
		return run
	}

	run.History = fromAPI(hist.Observations)
	run.Hash = historyHash(run.History)
	run.Quality = score(run.History, ladder.Target())
	run.Checks += 3
	// Lost-ack audit: every acknowledged observation is in the history.
	if len(run.History) < acks {
		run.fail("lost acks: %d acknowledged, %d in history", acks, len(run.History))
	}
	if st.Phase != "done" || st.Observations != len(run.History) {
		run.fail("status %q with %d observations, history has %d", st.Phase, st.Observations, len(run.History))
	}
	// Sessions are sequential, so the cost committed before each adaptive
	// observation is the cost spent before it.
	spent := 0.0
	for _, o := range run.History {
		if o.Iter >= 0 && spent >= w.Tune.Budget+1e-9 {
			run.fail("adaptive observation at iter %d issued with %.4f of budget %.4f spent", o.Iter, spent, w.Tune.Budget)
		}
		spent = o.CumCost
	}
	return run
}

// verifyInproc re-runs a fleet session in-process, with the same settings
// and seed, and checks that its trajectory is bit-identical.
func verifyInproc(ctx context.Context, w *workload, fleetRun sessionRun) error {
	store := storage.NewMem(storage.MemConfig{})
	defer store.Close()
	ref := runInproc(ctx, w, store, fleetRun.Spec, nil)
	if len(ref.Failures) > 0 {
		return errors.New(ref.Failures[0])
	}
	if ref.Hash != fleetRun.Hash {
		return errors.New("fleet trajectory differs from its in-process re-run")
	}
	return nil
}
