package robust

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/problem"
)

// FaultCounts aggregates the failure bookkeeping of one fidelity level.
type FaultCounts struct {
	// Attempts counts every call into the wrapped simulator (retries
	// included); Successes the attempts that produced a usable evaluation.
	Attempts, Successes int
	// Failures counts evaluations that exhausted their retry budget and were
	// surfaced as a penalty; Retries counts backoff re-attempts.
	Failures, Retries int
	// Panics / Timeouts / NonFinite break failures down by mechanism (an
	// attempt can contribute to at most one of them).
	Panics, Timeouts, NonFinite int
	// Causes histograms the error strings seen (truncated), LastError keeps
	// the most recent one verbatim.
	Causes    map[string]int
	LastError string
}

// FaultEventKind classifies one FaultLog event.
type FaultEventKind string

const (
	// FaultRetry: a failed attempt is about to be retried after backoff.
	FaultRetry FaultEventKind = "retry"
	// FaultError: one attempt failed (not necessarily terminally).
	FaultError FaultEventKind = "error"
	// FaultFailure: an evaluation exhausted its retry budget.
	FaultFailure FaultEventKind = "failure"
)

// FaultEvent is one retry/backoff/failure event recorded by the FaultLog.
type FaultEvent struct {
	// Seq numbers events monotonically across the log's lifetime, so gaps
	// caused by ring overwrites are detectable.
	Seq      uint64           `json:"seq"`
	Time     time.Time        `json:"time"`
	Fidelity problem.Fidelity `json:"fidelity"`
	Kind     FaultEventKind   `json:"kind"`
	// Attempt is the 0-based attempt index the event belongs to.
	Attempt int `json:"attempt"`
	// Err carries the (truncated) error string for error/failure events.
	Err string `json:"err,omitempty"`
}

// DefaultFaultEventCap is the default ring-buffer capacity of a FaultLog's
// event list.
const DefaultFaultEventCap = 256

// FaultLog records per-fidelity failure statistics for one SafeProblem,
// plus a bounded ring buffer of individual retry/error/failure events. The
// ring keeps the newest events; once full, each new event overwrites the
// oldest and increments Dropped — nothing is ever silently discarded without
// being counted. It is safe for concurrent use; the experiment runner
// evaluates replications in parallel.
type FaultLog struct {
	mu  sync.Mutex
	per map[problem.Fidelity]*FaultCounts

	events  []FaultEvent // ring storage
	next    int
	full    bool
	seq     uint64
	dropped uint64
}

// NewFaultLogCap returns an empty log whose event ring keeps the newest
// capacity events (capacity < 1 disables event recording entirely; counters
// still work).
func NewFaultLogCap(capacity int) *FaultLog {
	l := &FaultLog{per: make(map[problem.Fidelity]*FaultCounts)}
	if capacity >= 1 {
		l.events = make([]FaultEvent, capacity)
	}
	return l
}

// record appends one event to the ring; callers hold l.mu.
func (l *FaultLog) record(f problem.Fidelity, kind FaultEventKind, attempt int, errStr string) {
	l.seq++
	if len(l.events) == 0 {
		l.dropped++
		return
	}
	if l.full {
		l.dropped++
	}
	l.events[l.next] = FaultEvent{
		Seq: l.seq, Time: time.Now(), Fidelity: f, Kind: kind,
		Attempt: attempt, Err: errStr,
	}
	l.next++
	if l.next == len(l.events) {
		l.next = 0
		l.full = true
	}
}

// Events returns the buffered fault events, oldest first.
func (l *FaultLog) Events() []FaultEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		return append([]FaultEvent(nil), l.events[:l.next]...)
	}
	out := make([]FaultEvent, 0, len(l.events))
	out = append(out, l.events[l.next:]...)
	out = append(out, l.events[:l.next]...)
	return out
}

// Dropped reports how many events were overwritten (or discarded outright
// when the ring is disabled) since the log was created.
func (l *FaultLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

func (l *FaultLog) counts(f problem.Fidelity) *FaultCounts {
	c, ok := l.per[f]
	if !ok {
		c = &FaultCounts{Causes: make(map[string]int)}
		l.per[f] = c
	}
	return c
}

// cause classifies and truncates an error string for the histogram.
func cause(err error) string {
	s := err.Error()
	if len(s) > 120 {
		s = s[:120] + "…"
	}
	return s
}

func (l *FaultLog) recordAttempt(f problem.Fidelity) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts(f).Attempts++
}

func (l *FaultLog) recordSuccess(f problem.Fidelity) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts(f).Successes++
}

func (l *FaultLog) recordRetry(f problem.Fidelity, attempt int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts(f).Retries++
	l.record(f, FaultRetry, attempt, "")
}

// recordError classifies one failed attempt (not necessarily terminal).
func (l *FaultLog) recordError(f problem.Fidelity, err error, attempt int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.counts(f)
	switch {
	case isPanicError(err):
		c.Panics++
	case isTimeoutError(err):
		c.Timeouts++
	case isNonFiniteError(err):
		c.NonFinite++
	}
	c.Causes[cause(err)]++
	c.LastError = err.Error()
	l.record(f, FaultError, attempt, cause(err))
}

func (l *FaultLog) recordFailure(f problem.Fidelity, attempt int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.counts(f).Failures++
	msg := ""
	if err != nil {
		msg = cause(err)
	}
	l.record(f, FaultFailure, attempt, msg)
}

// Snapshot returns a deep copy of the per-fidelity counters, keyed by the
// fidelity's String() form ("low"/"high") so it serializes readably.
func (l *FaultLog) Snapshot() map[string]FaultCounts {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]FaultCounts, len(l.per))
	for f, c := range l.per {
		cp := *c
		cp.Causes = make(map[string]int, len(c.Causes))
		for k, v := range c.Causes {
			cp.Causes[k] = v
		}
		out[f.String()] = cp
	}
	return out
}

// TotalFailures returns the number of terminally failed evaluations across
// fidelities.
func (l *FaultLog) TotalFailures() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.per {
		n += c.Failures
	}
	return n
}

// TotalRetries returns the number of backoff re-attempts across fidelities.
func (l *FaultLog) TotalRetries() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.per {
		n += c.Retries
	}
	return n
}

// String renders a compact human-readable summary, fidelities in a stable
// order.
func (l *FaultLog) String() string {
	snap := l.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		c := snap[k]
		fmt.Fprintf(&b, "%s: %d attempts, %d ok, %d failed (%d panics, %d timeouts, %d non-finite), %d retries\n",
			k, c.Attempts, c.Successes, c.Failures, c.Panics, c.Timeouts, c.NonFinite, c.Retries)
		if c.LastError != "" {
			fmt.Fprintf(&b, "  last error: %s\n", c.LastError)
		}
	}
	if b.Len() == 0 {
		return "no faults recorded\n"
	}
	return b.String()
}
