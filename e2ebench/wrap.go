package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/problem"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// The decorators below time layers from outside the program, through the
// seams it already offers callers: a problem.Problem, a storage.Store, an
// http.RoundTripper and an http.Handler. Each forwards every call unchanged,
// so a decorated session's trajectory is bit-identical to a bare one's.

// counters is a concurrency-safe bag of named totals.
type counters struct {
	mu sync.Mutex
	m  map[string]float64
}

func newCounters() *counters { return &counters{m: make(map[string]float64)} }

func (c *counters) add(name string, v float64) {
	c.mu.Lock()
	c.m[name] += v
	c.mu.Unlock()
}

func (c *counters) snapshot() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// timedProblem decorates a problem: every evaluation lands on the session's
// timeline as problem.evaluate and is counted by rung index.
type timedProblem struct {
	problem.Problem
	tl  *timeline
	cnt *counters
}

// Evaluate implements problem.Problem.
func (p *timedProblem) Evaluate(x []float64, f problem.Fidelity) problem.Evaluation {
	ev, _ := p.EvaluateRich(x, f)
	return ev
}

// EvaluateRich implements problem.RichEvaluator through problem.EvaluateRich
// on the inner problem, so failures are classified exactly as without the
// decorator.
func (p *timedProblem) EvaluateRich(x []float64, f problem.Fidelity) (problem.Evaluation, error) {
	start := time.Now()
	ev, err := problem.EvaluateRich(p.Problem, x, f)
	p.tl.add("problem.evaluate", start, time.Now())
	p.cnt.add("problem.evaluate.rung"+strconv.Itoa(int(f))+".calls", 1)
	if err != nil || ev.Failed {
		p.cnt.add("problem.evaluate.failed", 1)
	}
	return ev, err
}

// Unwrap implements problem.Unwrapper, so a fidelity ladder stays visible.
func (p *timedProblem) Unwrap() problem.Problem { return p.Problem }

// timedStore decorates a storage.Store. Reads and writes are counted, and
// those keyed by a session the benchmark tracks land on that session's
// timeline as storage.put / storage.get.
type timedStore struct {
	storage.Store
	sessions func(id string) *timeline
	cnt      *counters
}

// Put implements storage.Store.
func (s *timedStore) Put(kind storage.Kind, id string, data []byte) error {
	start := time.Now()
	err := s.Store.Put(kind, id, data)
	s.sessions(id).add("storage.put", start, time.Now())
	s.cnt.add("storage.put.calls", 1)
	s.cnt.add("storage.put."+string(kind)+".calls", 1)
	s.cnt.add("storage.put.bytes", float64(len(data)))
	if err != nil {
		s.cnt.add("storage.put.failed", 1)
	}
	return err
}

// Get implements storage.Store.
func (s *timedStore) Get(kind storage.Kind, id string) ([]byte, error) {
	start := time.Now()
	data, err := s.Store.Get(kind, id)
	s.sessions(id).add("storage.get", start, time.Now())
	s.cnt.add("storage.get.calls", 1)
	return data, err
}

// countingTransport counts HTTP round trips (each retry is one); health
// probes are skipped so only work on behalf of sessions counts.
type countingTransport struct {
	next http.RoundTripper
	n    atomic.Int64
}

// RoundTrip implements http.RoundTripper.
func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(r.URL.Path, "/healthz") {
		t.n.Add(1)
	}
	return t.next.RoundTrip(r)
}

// timedHandler decorates an http.Handler (a replica's or the gateway's
// ServeHTTP). Requests are attributed to the session whose trace they
// carry, counted per route and per status class.
type timedHandler struct {
	next     http.Handler
	layer    string // "server" or "gateway"
	sessions func(trace string) *timeline
	cnt      *counters
}

// statusWriter remembers the response status.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler.
func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r)
	if route == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	end := time.Now()
	var trace string
	if tc, ok := telemetry.Extract(r.Header); ok {
		trace = tc.TraceID()
	}
	h.sessions(trace).add(h.layer, start, end)
	h.cnt.add(h.layer+".requests", 1)
	h.cnt.add(h.layer+"."+route+".requests", 1)
	h.cnt.add(h.layer+"."+route+".busy_s", end.Sub(start).Seconds())
	switch sw.code / 100 {
	case 4:
		h.cnt.add(h.layer+".responses_4xx", 1)
	case 5:
		h.cnt.add(h.layer+".responses_5xx", 1)
	}
}

// routeOf names a session request's route; "" for anything else (health
// probes, listings).
func routeOf(r *http.Request) string {
	path := strings.TrimPrefix(r.URL.Path, "/v1/sessions")
	if path == r.URL.Path {
		return ""
	}
	switch {
	case path == "" && r.Method == http.MethodPost:
		return "create"
	case strings.HasSuffix(path, "/suggest"):
		return "suggest"
	case strings.HasSuffix(path, "/observations"):
		return "observe"
	case strings.HasSuffix(path, "/status"):
		return "status"
	case strings.HasSuffix(path, "/history"):
		return "history"
	case r.Method == http.MethodDelete:
		return "delete"
	}
	return ""
}
