package telemetry

import (
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		tc := TraceContext{
			TraceHi: rng.Uint64(),
			TraceLo: rng.Uint64(),
			SpanID:  rng.Uint64(),
			Sampled: rng.Intn(2) == 0,
		}
		if tc.SpanID == 0 {
			tc.SpanID = 1
		}
		if tc.TraceHi == 0 && tc.TraceLo == 0 {
			tc.TraceLo = 1
		}
		h := tc.Traceparent()
		if len(h) != 55 {
			t.Fatalf("Traceparent() = %q, want 55 bytes", h)
		}
		got, ok := ParseTraceparent(h)
		if !ok || got != tc {
			t.Fatalf("round trip: %q -> (%+v, %v), want %+v", h, got, ok, tc)
		}
	}
}

func TestInjectExtractRoundTrip(t *testing.T) {
	tc := TraceContext{TraceHi: 0xdeadbeef, TraceLo: 0xcafe, SpanID: 0x1234, Sampled: true}
	h := make(http.Header)
	tc.Inject(h)
	got, ok := Extract(h)
	if !ok || got != tc {
		t.Fatalf("Extract = (%+v, %v), want %+v", got, ok, tc)
	}

	// Invalid contexts must not set the header at all.
	h = make(http.Header)
	(TraceContext{}).Inject(h)
	if v := h.Get(TraceparentHeader); v != "" {
		t.Fatalf("zero TraceContext injected %q", v)
	}
	if _, ok := Extract(h); ok {
		t.Fatal("Extract of absent header must fail")
	}
}

// TestParseTraceparentMalformed pins the propagation failure contract: a
// malformed header never errors and never panics — the caller just starts a
// fresh root.
func TestParseTraceparentMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", // truncated
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span ID
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902g7-01", // non-hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // wrong separator
		"0-44bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		strings.Repeat("0", 55),
	}
	for _, v := range bad {
		if tc, ok := ParseTraceparent(v); ok {
			t.Fatalf("ParseTraceparent(%q) accepted malformed header: %+v", v, tc)
		}
	}
}

// TestParseTraceparentMutations fuzzes one-byte corruptions of a valid
// header: every mutation must either still parse to a valid context or be
// rejected — never panic, never yield an invalid context.
func TestParseTraceparentMutations(t *testing.T) {
	valid := TraceContext{TraceHi: 0xa1b2, TraceLo: 0xc3d4, SpanID: 0xe5f6, Sampled: true}.Traceparent()
	for i := 0; i < len(valid); i++ {
		for _, c := range []byte{0, ' ', '-', 'G', 'z', 'A', 0xff} {
			mut := []byte(valid)
			mut[i] = c
			if tc, ok := ParseTraceparent(string(mut)); ok && !tc.Valid() {
				t.Fatalf("mutation %q parsed to invalid context %+v", mut, tc)
			}
		}
	}
	// Length mutations.
	for _, v := range []string{valid[:54], valid + "0", valid[1:], " " + valid} {
		if _, ok := ParseTraceparent(v); ok {
			t.Fatalf("length-mutated %q accepted", v)
		}
	}
}

// TestRingDroppedInvariant hammers the ring from concurrent writers while a
// reader repeatedly checks the conservation law: everything emitted is either
// still in the ring or counted dropped — at every instant, not just at rest.
func TestRingDroppedInvariant(t *testing.T) {
	const writers, perWriter, cap = 8, 500, 32
	r := NewRing(cap)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if n := len(r.Snapshot()); n > cap {
				t.Errorf("snapshot holds %d events, ring capacity %d", n, cap)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Emit(Event{Type: EventSpan})
			}
		}()
	}
	wg.Wait()
	<-done
	if got, want := int(r.Dropped())+len(r.Snapshot()), writers*perWriter; got != want {
		t.Fatalf("dropped+retained = %d, want every emitted event accounted (%d)", got, want)
	}
}

// FuzzParseTraceparent: ParseTraceparent never panics, and any header it
// accepts names a valid span whose re-rendered traceparent parses back to
// the same TraceContext. Seed inputs live in testdata/fuzz.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		tc, ok := ParseTraceparent(v)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", v, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", v, tc)
		}
		back, ok := ParseTraceparent(tc.Traceparent())
		if !ok || back != tc {
			t.Fatalf("%q: round trip through %q gave %+v (ok %v), want %+v", v, tc.Traceparent(), back, ok, tc)
		}
	})
}
