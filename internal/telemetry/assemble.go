package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// This file reconstructs distributed traces from merged span streams: N
// processes each write their own JSONL event log; the assembler groups
// SpanEvents by 128-bit trace ID, rebuilds each request tree from parent
// links, flags spans whose parents never arrived (a process died before
// flushing, or its stream was not collected), and renders per-trace
// critical paths plus a fleet-wide per-stage latency table.

// SpanNode is one span in a reconstructed trace tree.
type SpanNode struct {
	SpanEvent
	Children []*SpanNode
}

// SelfNs is the span's duration minus its children's — time attributable to
// this stage itself rather than anything it awaited. Concurrent children can
// drive it negative; it clamps to zero.
func (n *SpanNode) SelfNs() int64 {
	self := n.DurNs
	for _, c := range n.Children {
		self -= c.DurNs
	}
	if self < 0 {
		self = 0
	}
	return self
}

// Trace is one reconstructed request tree.
type Trace struct {
	ID string
	// Root is the tree root when the trace assembled cleanly (exactly one
	// parentless span); nil otherwise.
	Root *SpanNode
	// Roots holds every parentless span (normally one).
	Roots []*SpanNode
	// Orphans are spans whose parent ID appears nowhere in the merged
	// stream: the parent's process died before flushing, or its log was not
	// merged.
	Orphans []*SpanNode
	// Spans counts every span observed for this trace ID.
	Spans int
	// Services is the sorted set of service names that contributed spans.
	Services []string
}

// Complete reports whether the trace assembled with a single root and no
// orphaned spans.
func (t *Trace) Complete() bool { return len(t.Roots) == 1 && len(t.Orphans) == 0 }

// CrossProcess reports whether spans arrived from at least two services.
func (t *Trace) CrossProcess() bool { return len(t.Services) >= 2 }

// CriticalPath walks from the root following the largest-duration child at
// each level — the chain of stages that bounded the request's latency. Nil
// for traces without a single root.
func (t *Trace) CriticalPath() []*SpanNode {
	if t.Root == nil {
		return nil
	}
	var path []*SpanNode
	for n := t.Root; n != nil; {
		path = append(path, n)
		var next *SpanNode
		for _, c := range n.Children {
			if next == nil || c.DurNs > next.DurNs {
				next = c
			}
		}
		n = next
	}
	return path
}

// AssembleTraces groups the span events in a merged stream by trace ID and
// rebuilds each tree. Spans without a trace ID (pre-distributed-tracing
// streams, or process-local roots that never crossed a hop — they still
// carry one, so in practice only legacy logs) are ignored. Traces come back
// ordered by earliest span start.
func AssembleTraces(events []Event) []*Trace {
	groups := make(map[string][]*SpanNode)
	for _, ev := range events {
		if ev.Span == nil || ev.Span.Trace == "" {
			continue
		}
		groups[ev.Span.Trace] = append(groups[ev.Span.Trace], &SpanNode{SpanEvent: *ev.Span})
	}
	traces := make([]*Trace, 0, len(groups))
	for id, nodes := range groups {
		traces = append(traces, assembleOne(id, nodes))
	}
	sort.Slice(traces, func(i, j int) bool {
		si, sj := traceStart(traces[i]), traceStart(traces[j])
		if si != sj {
			return si < sj
		}
		return traces[i].ID < traces[j].ID
	})
	return traces
}

func assembleOne(id string, nodes []*SpanNode) *Trace {
	t := &Trace{ID: id, Spans: len(nodes)}
	byID := make(map[uint64]*SpanNode, len(nodes))
	for _, n := range nodes {
		// Duplicate span IDs within one trace (a replayed log merged twice)
		// keep the first occurrence.
		if _, dup := byID[n.ID]; !dup {
			byID[n.ID] = n
		}
	}
	services := make(map[string]bool)
	for _, n := range byID {
		if n.Service != "" {
			services[n.Service] = true
		}
		switch {
		case n.Parent == 0:
			t.Roots = append(t.Roots, n)
		case byID[n.Parent] != nil:
			p := byID[n.Parent]
			p.Children = append(p.Children, n)
		default:
			t.Orphans = append(t.Orphans, n)
		}
	}
	for _, n := range byID {
		sort.Slice(n.Children, func(i, j int) bool {
			if n.Children[i].StartUnixNs != n.Children[j].StartUnixNs {
				return n.Children[i].StartUnixNs < n.Children[j].StartUnixNs
			}
			return n.Children[i].ID < n.Children[j].ID
		})
	}
	sortNodes(t.Roots)
	sortNodes(t.Orphans)
	if len(t.Roots) == 1 {
		t.Root = t.Roots[0]
	}
	for s := range services {
		t.Services = append(t.Services, s)
	}
	sort.Strings(t.Services)
	return t
}

func sortNodes(ns []*SpanNode) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].StartUnixNs != ns[j].StartUnixNs {
			return ns[i].StartUnixNs < ns[j].StartUnixNs
		}
		return ns[i].ID < ns[j].ID
	})
}

func traceStart(t *Trace) int64 {
	start := int64(1<<63 - 1)
	for _, set := range [][]*SpanNode{t.Roots, t.Orphans} {
		for _, n := range set {
			if n.StartUnixNs < start {
				start = n.StartUnixNs
			}
		}
	}
	return start
}

// stageName renders a span's (service, name) identity for attribution
// tables.
func stageName(sp *SpanEvent) string {
	if sp.Service == "" {
		return sp.Name
	}
	return sp.Service + " " + sp.Name
}

// Render draws the trace tree: one line per span with service, name,
// duration and self time, children indented under parents, orphans flagged
// at the end.
func (t *Trace) Render() string {
	var b strings.Builder
	status := "complete"
	if !t.Complete() {
		status = fmt.Sprintf("INCOMPLETE (%d roots, %d orphans)", len(t.Roots), len(t.Orphans))
	}
	fmt.Fprintf(&b, "trace %s  spans=%d services=%s  %s\n",
		t.ID, t.Spans, strings.Join(t.Services, ","), status)
	seen := make(map[uint64]bool)
	for _, r := range t.Roots {
		renderNode(&b, r, 0, seen)
	}
	for _, o := range t.Orphans {
		fmt.Fprintf(&b, "  ORPHAN (parent %016x missing):\n", o.Parent)
		renderNode(&b, o, 1, seen)
	}
	return b.String()
}

func renderNode(b *strings.Builder, n *SpanNode, depth int, seen map[uint64]bool) {
	if seen[n.ID] {
		return // defensive: a parent-link cycle in a corrupt stream
	}
	seen[n.ID] = true
	fmt.Fprintf(b, "  %s%-*s %10.3fms self %8.3fms\n",
		strings.Repeat("  ", depth), 46-2*depth, stageName(&n.SpanEvent),
		float64(n.DurNs)/1e6, float64(n.SelfNs())/1e6)
	for _, c := range n.Children {
		renderNode(b, c, depth+1, seen)
	}
}

// RenderCriticalPath renders the latency-bounding chain of one trace.
func (t *Trace) RenderCriticalPath() string {
	path := t.CriticalPath()
	if len(path) == 0 {
		return "no single root: critical path undefined\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (%.3fms total):\n", float64(path[0].DurNs)/1e6)
	for i, n := range path {
		fmt.Fprintf(&b, "  %2d. %-44s %10.3fms (%5.1f%%)\n",
			i+1, stageName(&n.SpanEvent), float64(n.DurNs)/1e6,
			100*float64(n.DurNs)/float64(max64(path[0].DurNs, 1)))
	}
	return b.String()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// StageStats aggregates self-time per (service, span name) across a set of
// traces — the fleet-wide answer to "where do requests spend their time".
type StageStats struct {
	Stage          string
	Count          int
	TotalNs, MaxNs int64
	SelfNs         int64
}

// AggregateStages folds every span of every trace into per-stage totals,
// sorted by total self-time descending (the attribution order: stages that
// spent the time themselves come first, not the roots that merely contained
// them).
func AggregateStages(traces []*Trace) []StageStats {
	agg := make(map[string]*StageStats)
	var walk func(n *SpanNode)
	walk = func(n *SpanNode) {
		key := stageName(&n.SpanEvent)
		st := agg[key]
		if st == nil {
			st = &StageStats{Stage: key}
			agg[key] = st
		}
		st.Count++
		st.TotalNs += n.DurNs
		st.SelfNs += n.SelfNs()
		if n.DurNs > st.MaxNs {
			st.MaxNs = n.DurNs
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, t := range traces {
		for _, r := range t.Roots {
			walk(r)
		}
		for _, o := range t.Orphans {
			walk(o)
		}
	}
	out := make([]StageStats, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// StageTable renders AggregateStages as the per-stage latency attribution
// table.
func StageTable(traces []*Trace) string {
	stats := AggregateStages(traces)
	if len(stats) == 0 {
		return "no spans with trace IDs\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %8s %12s %12s %12s %12s\n",
		"stage", "count", "self_ms", "total_ms", "mean_ms", "max_ms")
	for _, st := range stats {
		fmt.Fprintf(&b, "%-44s %8d %12.2f %12.2f %12.3f %12.3f\n",
			st.Stage, st.Count, float64(st.SelfNs)/1e6, float64(st.TotalNs)/1e6,
			float64(st.TotalNs)/float64(st.Count)/1e6, float64(st.MaxNs)/1e6)
	}
	return b.String()
}
