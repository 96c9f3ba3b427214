package main

import (
	"sort"
	"sync"
	"time"
)

// This file attributes one session's wall time to the layers it passed
// through. Each layer contributes intervals on the session's timeline; a
// layer's self time is the part of the timeline where it is the deepest
// layer at work, so the self times of all layers plus the unattributed
// remainder add up to the session's wall time exactly.

// interval is a half-open [start, end) span of monotonic nanoseconds.
type interval struct{ start, end int64 }

// layerDef places a layer in the call tree. An interval only counts where
// its parent layer is also at work (Parent "" is the session itself), which
// keeps background work that happens to touch a session (a lease renewal,
// say) off that session's timeline.
type layerDef struct {
	Name   string
	Depth  int
	Parent string
}

// inprocLayers is the call tree of an in-process session.
var inprocLayers = []layerDef{
	{"core.ask", 1, ""},
	{"core.tell", 1, ""},
	{"problem.evaluate", 1, ""},
	{"gp.fit", 2, "core.ask"},
	{"optimize.msp", 2, "core.ask"},
	{"storage.put", 2, "core.tell"},
}

// fleetLayers is the call tree of a session driven through the gateway.
var fleetLayers = []layerDef{
	{"client", 1, ""},
	{"problem.evaluate", 1, ""},
	{"gateway", 2, "client"},
	{"server", 3, "gateway"},
	{"core.ask", 4, "server"},
	{"core.tell", 4, "server"},
	{"gp.fit", 5, "core.ask"},
	{"optimize.msp", 5, "core.ask"},
	{"storage.put", 5, "server"},
	{"storage.get", 5, "server"},
}

// timeline collects one session's layer intervals. Safe for concurrent use:
// server-side wrappers record from request goroutines.
type timeline struct {
	mu     sync.Mutex
	layers map[string][]interval
	calls  map[string]int
}

func newTimeline() *timeline {
	return &timeline{layers: make(map[string][]interval), calls: make(map[string]int)}
}

// add records one call of layer over [start, end).
func (t *timeline) add(layer string, start, end time.Time) {
	t.addNs(layer, start.UnixNano(), end.UnixNano())
}

func (t *timeline) addNs(layer string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.layers[layer] = append(t.layers[layer], interval{start, end})
	t.calls[layer]++
	t.mu.Unlock()
}

// attribution is one session's wall time split by layer.
type attribution struct {
	Wall         int64
	Self         map[string]int64 // deepest-layer time per layer
	Busy         map[string]int64 // time the layer was at work (its counted intervals' union)
	Unattributed int64            // wall time with no layer at work
}

// attribute splits the session window [start, end) across defs.
func (t *timeline) attribute(defs []layerDef, start, end int64) attribution {
	t.mu.Lock()
	defer t.mu.Unlock()
	return attribute(defs, t.layers, interval{start, end})
}

// attribute is the pure core of timeline.attribute: clip each layer's
// intervals to its parent's counted intervals (parents first, by depth),
// then sweep the timeline giving each instant to the deepest layer at work.
func attribute(defs []layerDef, layers map[string][]interval, window interval) attribution {
	ordered := append([]layerDef(nil), defs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Depth < ordered[j].Depth })
	counted := make(map[string][]interval, len(ordered))
	at := attribution{
		Wall: window.end - window.start,
		Self: make(map[string]int64, len(ordered)),
		Busy: make(map[string]int64, len(ordered)),
	}
	type edge struct {
		t     int64
		delta int
		layer int
	}
	var edges []edge
	for i, d := range ordered {
		parent := []interval{window}
		if d.Parent != "" {
			parent = counted[d.Parent]
		}
		iv := intersect(union(layers[d.Name]), parent)
		counted[d.Name] = iv
		at.Busy[d.Name] = measure(iv)
		at.Self[d.Name] = 0
		for _, x := range iv {
			edges = append(edges, edge{x.start, +1, i}, edge{x.end, -1, i})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	active := make([]int, len(ordered))
	var covered int64
	for k := 0; k < len(edges); {
		now := edges[k].t
		for k < len(edges) && edges[k].t == now {
			active[edges[k].layer] += edges[k].delta
			k++
		}
		if k == len(edges) {
			break
		}
		owner := -1
		for i := range ordered {
			if active[i] > 0 && (owner < 0 || ordered[i].Depth > ordered[owner].Depth) {
				owner = i
			}
		}
		if owner >= 0 {
			dt := edges[k].t - now
			at.Self[ordered[owner].Name] += dt
			covered += dt
		}
	}
	at.Unattributed = at.Wall - covered
	return at
}

// union merges overlapping intervals into a sorted disjoint set.
func union(xs []interval) []interval {
	if len(xs) == 0 {
		return nil
	}
	s := append([]interval(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	out := []interval{s[0]}
	for _, x := range s[1:] {
		last := &out[len(out)-1]
		if x.start <= last.end {
			if x.end > last.end {
				last.end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// intersect returns the intersection of two sorted disjoint interval sets.
func intersect(a, b []interval) []interval {
	var out []interval
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].start, b[j].start), min(a[i].end, b[j].end)
		if lo < hi {
			out = append(out, interval{lo, hi})
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return out
}

// measure is the total length of a disjoint interval set.
func measure(xs []interval) int64 {
	var s int64
	for _, x := range xs {
		s += x.end - x.start
	}
	return s
}
