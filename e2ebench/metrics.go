package main

import (
	"fmt"
	"runtime"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ Name, Unit string }

// endToEndMetrics are what a user of the system sees, printed by --trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"session_s", "s"},
	{"sessions_per_s", "1/s"},
	{"suggest_p50_ms", "ms"},
	{"suggest_tail_ms", "ms"},
	{"observe_p50_ms", "ms"},
	{"observe_tail_ms", "ms"},
	{"best_objective", "objective"},
	{"sims_to_best", "sims"},
	{"heap_retained_mb", "MB"},
}

// Per-layer metrics are means per traced session.
const (
	perCount = "count/session"
	perSec   = "s/session"
)

// serverRoutes are the server routes a fleet session uses.
var serverRoutes = []string{"create", "suggest", "observe", "status", "history", "delete"}

// perLayerMetrics are printed by --trace 1.
var perLayerMetrics = func() []metricDef {
	m := []metricDef{
		{"optimize.msp.calls", perCount},
		{"optimize.msp.self_s", perSec},
		{"optimize.msp.starts", perCount},
		{"gp.fit.calls", perCount},
		{"gp.fit.self_s", perSec},
		{"core.ask.calls", perCount},
		{"core.ask.busy_s", perSec},
		{"core.ask.self_s", perSec},
		{"core.tell.calls", perCount},
		{"core.tell.busy_s", perSec},
		{"core.tell.self_s", perSec},
		{"problem.evaluate.rung0.calls", perCount},
		{"problem.evaluate.rung1.calls", perCount},
		{"problem.evaluate.rung2.calls", perCount},
		{"problem.evaluate.busy_s", perSec},
		{"problem.evaluate.failed", perCount},
		{"storage.put.calls", perCount},
		{"storage.put.busy_s", perSec},
		{"storage.put.bytes", "B/session"},
		{"storage.put.ckpt.calls", perCount},
		{"storage.put.manifest.calls", perCount},
		{"storage.put.owner.calls", perCount},
		{"storage.put.replica.calls", perCount},
		{"storage.get.calls", perCount},
		{"storage.get.busy_s", perSec},
	}
	for _, r := range serverRoutes {
		m = append(m, metricDef{"server." + r + ".requests", perCount}, metricDef{"server." + r + ".busy_s", perSec})
	}
	return append(m,
		metricDef{"server.self_s", perSec},
		metricDef{"server.responses_4xx", perCount},
		metricDef{"server.responses_5xx", perCount},
		metricDef{"gateway.requests", perCount},
		metricDef{"gateway.busy_s", perSec},
		metricDef{"gateway.self_s", perSec},
		metricDef{"gateway.upstream.attempts", perCount},
		metricDef{"client.requests", perCount},
		metricDef{"client.attempts", perCount},
		metricDef{"client.self_s", perSec},
		metricDef{"runtime.alloc_mb", "MB/session"},
		metricDef{"runtime.gc_pause_s", perSec},
		metricDef{"session_wall_s", perSec},
		metricDef{"unattributed_s", perSec},
		metricDef{"trace_overhead_s", perSec},
	)
}()

// layers reports the per-layer metrics of a traced pass: each session's
// wall time is split across its layers (account.go), and every figure is
// a mean per session. plain holds the same sessions untraced.
func (r *report) layers(w *workload, plain, traced []sessionRun, cnt map[string]float64, before, after *runtime.MemStats) {
	n := float64(len(traced))
	if n == 0 {
		r.failure("no traced session")
		return
	}
	defs := inprocLayers
	if w.Fleet {
		defs = fleetLayers
	}
	self := make(map[string]float64)
	busy := make(map[string]float64)
	calls := make(map[string]float64)
	var wall, unattributed, plainWall float64
	for _, s := range traced {
		at := s.Timeline.attribute(defs, s.Start, s.End)
		var sum int64
		for _, d := range defs {
			self[d.Name] += float64(at.Self[d.Name]) / 1e9
			busy[d.Name] += float64(at.Busy[d.Name]) / 1e9
			sum += at.Self[d.Name]
		}
		if sum+at.Unattributed != at.Wall {
			r.failure(fmt.Sprintf("%s: layer self times %d ns + unattributed %d ns != wall %d ns", s.Spec.ID, sum, at.Unattributed, at.Wall))
		}
		for layer, c := range s.Timeline.calls {
			calls[layer] += float64(c)
		}
		wall += float64(at.Wall) / 1e9
		unattributed += float64(at.Unattributed) / 1e9
	}
	for _, s := range plain {
		plainWall += s.Wall()
	}
	for _, l := range []string{"optimize.msp", "gp.fit", "core.ask", "core.tell"} {
		r.metric(l+".calls", calls[l]/n, perCount)
		r.metric(l+".self_s", self[l]/n, perSec)
	}
	for _, l := range []string{"core.ask", "core.tell", "problem.evaluate", "storage.put", "storage.get", "gateway"} {
		r.metric(l+".busy_s", busy[l]/n, perSec)
	}
	for _, l := range []string{"server", "gateway", "client"} {
		r.metric(l+".self_s", self[l]/n, perSec)
	}
	r.metric("client.requests", calls["client"]/n, perCount)
	for _, rt := range serverRoutes {
		r.metric("server."+rt+".busy_s", cnt["server."+rt+".busy_s"]/n, perSec)
	}
	// The remaining counts come straight from the decorators' counters.
	for _, m := range perLayerMetrics {
		if _, done := r.values[m.Name]; !done && (m.Unit == perCount || m.Unit == "B/session") {
			r.metric(m.Name, cnt[m.Name]/n, m.Unit)
		}
	}
	r.metric("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/n, "MB/session")
	r.metric("runtime.gc_pause_s", float64(after.PauseTotalNs-before.PauseTotalNs)/1e9/n, perSec)
	r.metric("session_wall_s", wall/n, perSec)
	r.metric("unattributed_s", unattributed/n, perSec)
	r.metric("trace_overhead_s", (wall-plainWall)/n, perSec)
	r.note(fmt.Sprintf("per-layer figures are means over %d traced sessions; self times plus unattributed_s add up to session_wall_s", len(traced)))
}
