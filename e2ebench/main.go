// Command e2ebench is the repository's end-to-end benchmark. It drives the
// optimizer through its public entry points — in-process engines
// (core.NewEngine, Ask/AskBatch, TellByID) or a loopback fleet (client →
// gateway → sharded replicas → one shared store) — as a closed loop
// of clients, checks that every trajectory is correct, and prints each
// metric by name with its unit. The last line of standard output is a JSON
// summary.
//
//	e2ebench --workload poweramp-exact --seed 1 --seconds 50 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// sessions twice, untraced then traced, checks that the trajectories are
// bit-identical, and reports per-layer metrics from the traced pass. See
// WORKLOADS.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// setupReps is how many times a run brings its stack up to measure setup_s;
// the last one serves the run.
const setupReps = 15

// verifySample is how many fleet sessions per run are re-run in-process.
const verifySample = 2

// maxTraced caps the sessions per client a traced pass replays: per-layer
// figures are means per session, and a few hundred fleet sessions fix them
// as well as thousands while keeping the trace ring small.
const maxTraced = 200

// runTimeout bounds a whole run, well inside the 180 s a run may take.
const runTimeout = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed; session seeds derive from it")
	seconds := flag.Int("seconds", 50, "how long clients keep starting sessions")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.Parse()
	w, err := lookupWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second}
	var rep *report
	if *trace == 0 {
		rep, err = b.endToEnd(ctx)
	} else {
		rep, err = b.traced(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if !rep.print(os.Stdout) {
		os.Exit(1)
	}
}

// bench is one invocation: a workload, a seed and a measuring window.
type bench struct {
	w      *workload
	seed   int64
	window time.Duration
}

// stack is what a pass runs its sessions against.
type stack struct {
	store   storage.Store // in-process
	fleet   *fleet
	clients []*fleetClient
}

func (s *stack) close() {
	for _, c := range s.clients {
		c.tr.CloseIdleConnections()
	}
	if s.fleet != nil {
		s.fleet.close()
	}
	if s.store != nil {
		_ = s.store.Close()
	}
}

// setUp brings up the workload's stack: for in-process workloads a store
// plus one engine per client (discarded; sessions build their own), for the
// fleet the replicas, gateway, listeners and clients.
func (b *bench) setUp(ft *fleetTrace) (*stack, error) {
	if b.w.Fleet {
		f, err := startFleet(ft)
		if err != nil {
			return nil, err
		}
		s := &stack{fleet: f}
		for c := 0; c < clients; c++ {
			s.clients = append(s.clients, newFleetClient(f.url))
		}
		return s, nil
	}
	for c := 0; c < clients; c++ {
		p, err := catalog.Lookup(b.w.Problem)
		if err != nil {
			return nil, err
		}
		if _, err := core.NewEngine(p, b.w.Tune.coreConfig(), rand.New(rand.NewSource(b.seed+int64(c)))); err != nil {
			return nil, err
		}
	}
	return &stack{store: storage.NewMem(storage.MemConfig{})}, nil
}

// pass runs a closed loop of the workload's clients against s. With replay
// nil each client starts fresh sessions until the window closes; otherwise
// client c runs exactly replay[c]. It returns the sessions per client and
// the wall time until the last one finished.
func (b *bench) pass(ctx context.Context, s *stack, replay [][]sessionSpec, cnt *counters, tracer *telemetry.Tracer) ([][]sessionRun, float64) {
	runs := make([][]sessionRun, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				var spec sessionSpec
				if replay != nil {
					if k == len(replay[c]) {
						return
					}
					spec = replay[c][k]
				} else {
					if time.Since(start) >= b.window || ctx.Err() != nil {
						return
					}
					spec = newSpec(b.w, b.seed, c, k)
				}
				var run sessionRun
				if b.w.Fleet {
					run = runFleet(ctx, b.w, s.fleet, s.clients[c], spec, tracer)
				} else {
					run = runInproc(ctx, b.w, s.store, spec, cnt)
				}
				runs[c] = append(runs[c], run)
			}
		}(c)
	}
	wg.Wait()
	return runs, time.Since(start).Seconds()
}

// endToEnd is the --trace 0 run.
func (b *bench) endToEnd(ctx context.Context) (*report, error) {
	var setups []float64
	var s *stack
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = b.setUp(nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	rep := newReport()
	rep.metric("setup_s", median(setups), "s")
	b.summarize(ctx, rep, s)
	// The sessions' results are garbage by now; what is still live is the
	// stack's own state.
	rep.metric("heap_retained_mb", retainedHeapMB(), "MB")
	rep.note(fmt.Sprintf("peak RSS of the process was %.1f MB", maxRSSMB()))
	return rep, nil
}

// summarize runs the measured pass on s and reports its end-to-end
// metrics, except set-up and memory.
func (b *bench) summarize(ctx context.Context, rep *report, s *stack) {
	perClient, elapsed := b.pass(ctx, s, nil, nil, nil)
	runs := flatten(perClient)
	rep.sessions(runs)
	b.verifyFleet(ctx, rep, perClient)
	if rep.failed == 0 && len(runs) == 0 {
		rep.failure("no session finished")
	}
	walls := make([]float64, len(runs))
	for i := range runs {
		walls[i] = runs[i].Wall()
	}
	rep.metric("session_s", median(walls), "s")
	rep.metric("sessions_per_s", float64(len(runs))/elapsed, "1/s")
	var sug, obs []float64
	var best, stb []float64
	feasible := 0
	for _, r := range runs {
		sug = append(sug, r.SuggestMs...)
		obs = append(obs, r.ObserveMs...)
		best = append(best, r.Quality.Best)
		stb = append(stb, r.Quality.SimsToBest)
		if r.Quality.Feasible {
			feasible++
		}
	}
	rep.latency("suggest", sug)
	rep.latency("observe", obs)
	rep.metric("best_objective", mean(best), "objective")
	rep.note(fmt.Sprintf("%d of %d sessions found a feasible target-rung point", feasible, len(runs)))
	rep.metric("sims_to_best", mean(stb), "sims")
}

// verifyFleet re-runs the first fleet session of each client in-process and
// requires a bit-identical trajectory.
func (b *bench) verifyFleet(ctx context.Context, rep *report, perClient [][]sessionRun) {
	if !b.w.Fleet {
		return
	}
	n := 0
	for _, runs := range perClient {
		if len(runs) == 0 || len(runs[0].Failures) > 0 || n == verifySample {
			continue
		}
		n++
		rep.check(verifyInproc(ctx, b.w, runs[0]))
	}
	if n == 0 {
		rep.failure("no fleet session to verify in-process")
	}
}

// traced is the --trace 1 run: an untraced pass over half the window, then
// the same sessions again, traced.
func (b *bench) traced(ctx context.Context) (*report, error) {
	rep := newReport()
	rep.perLayer = true

	s, err := b.setUp(nil)
	if err != nil {
		return nil, err
	}
	b.window /= 2
	plain, _ := b.pass(ctx, s, nil, nil, nil)
	s.close()
	rep.sessions(flatten(plain))
	b.verifyFleet(ctx, rep, plain)
	specs := make([][]sessionSpec, len(plain))
	for c := range plain {
		plain[c] = plain[c][:min(len(plain[c]), maxTraced)]
		for _, r := range plain[c] {
			specs[c] = append(specs[c], r.Spec)
		}
	}

	cnt := newCounters()
	var ft *fleetTrace
	var tracer *telemetry.Tracer
	if b.w.Fleet {
		n := 0
		for _, sp := range specs {
			n += len(sp)
		}
		// Generous: a fleet session emits about a hundred events.
		ft = &fleetTrace{cnt: cnt, ring: telemetry.NewRing(512*n + 4096),
			byTrace: make(map[string]*timeline), byID: make(map[string]*timeline)}
		tracer = telemetry.NewTracer(nil, 1)
	}
	if s, err = b.setUp(ft); err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tracedRuns, _ := b.pass(ctx, s, specs, cnt, tracer)
	runtime.ReadMemStats(&after)
	if b.w.Fleet {
		for _, fc := range s.clients {
			cnt.add("client.attempts", float64(fc.attempts.n.Load()))
		}
		cnt.add("gateway.upstream.attempts", float64(s.fleet.upstream.n.Load()))
	}
	s.close()
	if ft != nil {
		if d := ft.ring.Dropped(); d > 0 {
			rep.failure(fmt.Sprintf("trace ring dropped %d events", d))
		}
		addSpans(ft.ring.Snapshot(), ft.session, cnt, true)
	}

	rep.sessions(flatten(tracedRuns))
	// Telemetry must never change a trajectory.
	for c := range plain {
		for k := range plain[c] {
			if k >= len(tracedRuns[c]) {
				rep.failure(fmt.Sprintf("traced pass lacks session %s", plain[c][k].Spec.ID))
				continue
			}
			u, t := plain[c][k], tracedRuns[c][k]
			if u.Hash != t.Hash || u.Hash == "" {
				rep.failure(fmt.Sprintf("%s: traced trajectory %.12s differs from untraced %.12s", u.Spec.ID, t.Hash, u.Hash))
			} else {
				rep.check(nil)
			}
		}
	}
	rep.layers(b.w, flatten(plain), flatten(tracedRuns), cnt.snapshot(), &before, &after)
	return rep, nil
}

func flatten(perClient [][]sessionRun) []sessionRun {
	var out []sessionRun
	for _, runs := range perClient {
		out = append(out, runs...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// retainedHeapMB is the heap live after a full collection. Called with the
// stack up and the sessions' results dropped, it is the state the system
// keeps between sessions.
func retainedHeapMB() float64 {
	// Two collections: sync.Pool contents survive the first in the pools'
	// victim caches.
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// report accumulates metrics, checks and failures, and prints them.
type report struct {
	perLayer  bool
	values    map[string]float64
	units     map[string]string
	notes     []string
	attempted int
	failed    int
	failures  []string
}

func newReport() *report {
	return &report{values: make(map[string]float64), units: make(map[string]string)}
}

func (r *report) metric(name string, v float64, unit string) {
	r.values[name], r.units[name] = v, unit
}

func (r *report) note(s string) { r.notes = append(r.notes, s) }

// check counts one correctness check, failed when err is non-nil.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) failure(msg string) { r.check(fmt.Errorf("%s", msg)) }

// sessions folds in the operations and checks of finished sessions.
func (r *report) sessions(runs []sessionRun) {
	for _, s := range runs {
		r.attempted += s.Ops + s.Checks
		r.failed += len(s.Failures)
		r.failures = append(r.failures, s.Failures...)
	}
}

// latency reports the median and tail of raw samples, exactly.
func (r *report) latency(op string, samples []float64) {
	s := sortedCopy(samples)
	p := tailPercentile(len(s), tailWant, 10)
	r.metric(op+"_p50_ms", percentile(s, 50), "ms")
	r.metric(op+"_tail_ms", percentile(s, p), "ms")
	r.note(fmt.Sprintf("%s_tail_ms is p%g of %d samples (%d beyond it)", op, p, len(s), beyond(len(s), p)))
}

// print writes one line per metric, the notes and failures, then the JSON
// summary line. It reports whether the run is correct.
func (r *report) print(out *os.File) bool {
	want := endToEndMetrics
	if r.perLayer {
		want = perLayerMetrics
	}
	metrics := make(map[string]map[string]any, len(want))
	for _, m := range want {
		v, ok := r.values[m.Name]
		switch {
		case !ok:
			r.failure("metric " + m.Name + " was not measured")
			v = 0
		case math.IsNaN(v) || math.IsInf(v, 0):
			r.failure("metric " + m.Name + " has no samples")
			v = 0
		case r.units[m.Name] != m.Unit:
			r.failure("metric " + m.Name + " measured in " + r.units[m.Name] + ", declared " + m.Unit)
		}
		fmt.Fprintf(out, "%-34s %16.6f %s\n", m.Name, v, m.Unit)
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(out, "%-34s %16.6f (%d of %d operations and checks)\n", "failed_frac", frac, r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(out, "note:", n)
	}
	for i, f := range r.failures {
		if i == 20 {
			fmt.Fprintf(out, "FAIL: ... and %d more\n", len(r.failures)-i)
			break
		}
		fmt.Fprintln(out, "FAIL:", f)
	}
	correct := r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return false
	}
	fmt.Fprintln(out, string(line))
	return correct
}
