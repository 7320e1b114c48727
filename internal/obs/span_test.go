package obs

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"pmuoutage/api"
)

func TestTraceParentRoundTrip(t *testing.T) {
	id := NewTraceID()
	const parent = uint64(0xdeadbeef01020304)
	h := FormatTraceParent(id, parent)
	if len(h) != 39 {
		t.Fatalf("header length %d, want 39: %q", len(h), h)
	}
	if h != "00-"+id+"-deadbeef01020304-01" {
		t.Fatalf("header %q, want the documented 00-<trace>-<span>-01 layout", h)
	}
	gotID, gotParent, ok := ParseTraceParent(h)
	if !ok || gotID != id || gotParent != parent {
		t.Fatalf("round trip: got (%q, %x, %v), want (%q, %x, true)", gotID, gotParent, ok, id, parent)
	}

	for _, bad := range []string{
		"",
		"00-short-00-01",
		"01-aaaaaaaaaaaaaaaa-bbbbbbbbbbbbbbbb-01", // wrong version
		"00-AAAAAAAAAAAAAAAA-bbbbbbbbbbbbbbbb-01", // uppercase hex
		"00-aaaaaaaaaaaaaaaa-bbbbbbbbbbbbbbbg-01", // non-hex span
		"00-aaaaaaaaaaaaaaaa bbbbbbbbbbbbbbbb-01", // missing dash
	} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted malformed header", bad)
		}
	}
}

// FuzzParseTraceParent: ParseTraceParent never panics, every value it
// accepts re-formats to a header that parses back to the same (trace,
// parent) pair, and IncomingTrace turns any caller X-Trace-Id into one
// FormatTraceParent can carry.
func FuzzParseTraceParent(f *testing.F) {
	f.Add("00-0123456789abcdef-deadbeef01020304-01")
	f.Add("00-0123456789abcdef-0000000000000000-ff")
	f.Add("00-AAAAAAAAAAAAAAAA-bbbbbbbbbbbbbbbb-01")
	f.Add("abc")
	f.Add("")
	f.Fuzz(func(t *testing.T, v string) {
		if id, parent, ok := ParseTraceParent(v); ok {
			id2, parent2, ok2 := ParseTraceParent(FormatTraceParent(id, parent))
			if !ok2 || id2 != id || parent2 != parent {
				t.Fatalf("%q parsed to (%q, %x) but re-formats to (%q, %x, %v)", v, id, parent, id2, parent2, ok2)
			}
		}
		h := http.Header{}
		h.Set(TraceHeader, v)
		_, id := IncomingTrace(context.Background(), h)
		if got, _, ok := ParseTraceParent(FormatTraceParent(id, 1)); !ok || got != id {
			t.Fatalf("X-Trace-Id %q resolved to %q, which does not survive a Traceparent round trip", v, id)
		}
	})
}

// TestIncomingTrace pins the ingress precedence: a valid Traceparent
// wins, then a valid X-Trace-Id; a malformed caller ID is replaced by a
// minted one rather than relayed.
func TestIncomingTrace(t *testing.T) {
	const (
		tid   = "0123456789abcdef"
		other = "fedcba9876543210"
	)
	resolve := func(tp, xid string) (string, uint64) {
		h := http.Header{}
		if tp != "" {
			h.Set(TraceParentHeader, tp)
		}
		if xid != "" {
			h.Set(TraceHeader, xid)
		}
		ctx, id := IncomingTrace(context.Background(), h)
		if got := TraceID(ctx); got != id {
			t.Fatalf("context carries %q, returned %q", got, id)
		}
		return id, ParentSpanID(ctx)
	}
	if id, parent := resolve(FormatTraceParent(tid, 7), other); id != tid || parent != 7 {
		t.Fatalf("traceparent: got (%q, %d), want (%q, 7)", id, parent, tid)
	}
	if id, parent := resolve("00-garbage", other); id != other || parent != 0 {
		t.Fatalf("malformed traceparent: got (%q, %d), want (%q, 0)", id, parent, other)
	}
	for _, bad := range []string{"", "abc", "0123456789ABCDEF", "0123456789abcdef0"} {
		id, parent := resolve("", bad)
		if id == bad || parent != 0 {
			t.Fatalf("X-Trace-Id %q: got (%q, %d), want a minted ID", bad, id, parent)
		}
		if _, ok := parseID(id); !ok {
			t.Fatalf("X-Trace-Id %q: minted %q is not 16 lowercase hex", bad, id)
		}
	}
}

func TestParentSpanIDPrecedence(t *testing.T) {
	ctx := context.Background()
	if got := ParentSpanID(ctx); got != 0 {
		t.Fatalf("empty ctx parent = %x, want 0", got)
	}
	ctx = WithRemoteParent(ctx, 42)
	if got := ParentSpanID(ctx); got != 42 {
		t.Fatalf("remote parent = %x, want 42", got)
	}
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	ctx, sp := tr.StartSpan(ctx, "root")
	if !sp.root {
		t.Fatal("first local span should be root even with a remote parent")
	}
	if sp.parent != 42 {
		t.Fatalf("root parent = %x, want remote 42", sp.parent)
	}
	// An active local span wins over the remote parent.
	if got := ParentSpanID(ctx); got != sp.id {
		t.Fatalf("ctx parent = %x, want active span %x", got, sp.id)
	}
}

// drive runs one trace through tr: a root span with one child via
// StartSpan and one child via RecordSpan, returning the trace ID.
func drive(tr *Tracer, rootDur time.Duration, spanErr error) string {
	ctx, root := tr.StartSpan(context.Background(), "http")
	cctx, child := tr.StartSpan(ctx, "proxy")
	child.SetAttr("backend", "http://b1")
	child.SetError(spanErr)
	child.End()
	now := time.Now()
	tr.RecordSpan(cctx, "detect", now.Add(-time.Millisecond), now, nil)
	if rootDur > 0 {
		root.start = root.start.Add(-rootDur) // age the root instead of sleeping
	}
	id := TraceID(ctx)
	root.End()
	return id
}

func TestTailSamplingKeepRules(t *testing.T) {
	// Slow rule: a root over threshold is kept, a fast one dropped.
	tr := NewTracer(TracerConfig{SlowThreshold: 50 * time.Millisecond})
	fast := drive(tr, 0, nil)
	slow := drive(tr, 80*time.Millisecond, nil)
	if _, ok := tr.TraceByID(fast); ok {
		t.Fatal("fast, clean trace should be dropped")
	}
	got, ok := tr.TraceByID(slow)
	if !ok {
		t.Fatal("slow trace should be kept")
	}
	if got.Kept != api.TraceKeptSlow {
		t.Fatalf("kept reason = %q, want %q", got.Kept, api.TraceKeptSlow)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(got.Spans))
	}

	// Error rule beats everything.
	errID := drive(tr, 80*time.Millisecond, errors.New("boom"))
	got, ok = tr.TraceByID(errID)
	if !ok || got.Kept != api.TraceKeptError {
		t.Fatalf("erroneous trace: kept=%v reason=%q, want error", ok, got.Kept)
	}

	// Random sampling keeps fast, clean traces at the configured rate.
	sampled := NewTracer(TracerConfig{SlowThreshold: -1, SampleEvery: 2})
	var kept int
	for i := 0; i < 10; i++ {
		id := drive(sampled, 0, nil)
		if _, ok := sampled.TraceByID(id); ok {
			kept++
		}
	}
	if kept != 5 {
		t.Fatalf("SampleEvery=2 kept %d of 10, want 5", kept)
	}
	if sampled.KeptCounter().Load() != 5 || sampled.DroppedCounter().Load() != 5 {
		t.Fatalf("counters kept=%d dropped=%d, want 5/5",
			sampled.KeptCounter().Load(), sampled.DroppedCounter().Load())
	}

	// Nothing left pending once roots end.
	if n := tr.PendingLen(); n != 0 {
		t.Fatalf("pending table leaked %d traces", n)
	}
}

func TestTraceStructure(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	id := drive(tr, 0, nil)
	got, ok := tr.TraceByID(id)
	if !ok {
		t.Fatal("SampleEvery=1 must keep every trace")
	}
	if got.TraceID != id {
		t.Fatalf("trace id %q, want %q", got.TraceID, id)
	}
	byStage := map[string]api.TraceSpan{}
	for _, s := range got.Spans {
		byStage[s.Stage] = s
	}
	root := byStage["http"]
	if !root.Root {
		t.Fatal("http span should be marked root")
	}
	proxy := byStage["proxy"]
	if proxy.Parent != root.ID {
		t.Fatalf("proxy parent = %q, want root %q", proxy.Parent, root.ID)
	}
	if proxy.Attrs["backend"] != "http://b1" {
		t.Fatalf("proxy attrs = %v", proxy.Attrs)
	}
	detect := byStage["detect"]
	if detect.Parent != proxy.ID {
		t.Fatalf("detect parent = %q, want proxy %q (RecordSpan under the proxy ctx)", detect.Parent, proxy.ID)
	}
	if detect.DurationNS <= 0 || got.DurationNS <= 0 {
		t.Fatalf("durations must be positive: span=%d trace=%d", detect.DurationNS, got.DurationNS)
	}
}

func TestTraceRingEviction(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 3, SampleEvery: 1})
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, drive(tr, 0, nil))
	}
	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(traces))
	}
	// Newest first, oldest evicted.
	if traces[0].TraceID != ids[4] || traces[2].TraceID != ids[2] {
		t.Fatalf("ring order wrong: got %q..%q, want %q..%q",
			traces[0].TraceID, traces[2].TraceID, ids[4], ids[2])
	}
	if _, ok := tr.TraceByID(ids[0]); ok {
		t.Fatal("oldest trace should have been evicted")
	}
}

func TestSpanCapAndPendingBound(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxSpans: 2, SampleEvery: 1})
	ctx, root := tr.StartSpan(context.Background(), "http")
	for i := 0; i < 4; i++ {
		now := time.Now()
		tr.RecordSpan(ctx, "detect", now, now, nil)
	}
	id := TraceID(ctx)
	root.End()
	got, ok := tr.TraceByID(id)
	if !ok {
		t.Fatal("trace should be kept")
	}
	if len(got.Spans) != 2 || got.DroppedSpans != 3 {
		t.Fatalf("spans=%d dropped=%d, want 2 retained, 3 dropped", len(got.Spans), got.DroppedSpans)
	}

	// Pending bound: span floods for absent roots are shed, but a root
	// arriving while the table is full still finalizes.
	small := NewTracer(TracerConfig{MaxPending: 1, SampleEvery: 1})
	orphanCtx := WithTraceID(context.Background(), NewTraceID())
	now := time.Now()
	small.RecordSpan(orphanCtx, "detect", now, now, nil) // root never arrives: occupies the slot
	ctx2 := WithTraceID(context.Background(), NewTraceID())
	small.RecordSpan(ctx2, "detect", now, now, nil) // shed: table full
	_, lateRoot := small.StartSpan(ctx2, "http")
	lateRoot.End()
	got, ok = small.TraceByID(TraceID(ctx2))
	if !ok {
		t.Fatal("root arriving over a full pending table must still finalize")
	}
	if len(got.Spans) != 1 {
		t.Fatalf("late root retained %d spans, want just itself (child was shed)", len(got.Spans))
	}
	if small.PendingLen() != 1 {
		t.Fatalf("pending = %d, want the original orphan only", small.PendingLen())
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	ctx, root := tr.StartSpan(context.Background(), "http")
	id := TraceID(ctx)
	root.End()
	root.End()
	got, ok := tr.TraceByID(id)
	if !ok || len(got.Spans) != 1 {
		t.Fatalf("double End produced kept=%v spans=%d, want one span once", ok, len(got.Spans))
	}
}
