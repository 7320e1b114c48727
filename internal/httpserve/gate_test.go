package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/service"
	"pmuoutage/internal/wire"
)

// Ratio gates on the ingest path. Each compares two variants timed in
// the same process, so machine speed cancels out and only a change in
// the code moves the ratio. Both skip under -race; `make bench` runs
// them uninstrumented.

const (
	// decodeSpeedupMin: decoding one binary wire frame must be at least
	// this many times faster than json.Unmarshal of the same sample.
	decodeSpeedupMin = 2
	// tracingBound: binary ingest with every trace retained must stay
	// within this factor of the untraced path.
	tracingBound = 1.5
	// gateReps is the best-of count per side.
	gateReps = 3
)

// gateFrame is a 14-bus sample with bus 0 missing, as a binary frame
// and as the equivalent JSON ingest body, so both decoders walk their
// missing-measurement paths.
func gateFrame(t *testing.T) (enc, body []byte) {
	t.Helper()
	const n = 14
	vm := make([]float64, n)
	va := make([]float64, n)
	mask := make([]bool, n)
	for i := range vm {
		vm[i] = 1 + 0.003*float64(i%5)
		va[i] = -0.02 * float64(i) * vm[i]
	}
	mask[0] = true
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	if err := f.Pack(3, vm, va, mask); err != nil {
		t.Fatal(err)
	}
	enc, err := wire.AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	body, err = json.Marshal(IngestRequest{
		Shard:  "east",
		Sample: pmuoutage.Sample{Vm: vm, Va: va, Missing: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return enc, body
}

// TestBinaryDecodeSpeedup pins the reason the binary transport exists:
// wire.DecodeFrame into a warm frame is at least decodeSpeedupMin times
// faster than decoding the same sample from JSON. Its zero allocations
// per decode are pinned by wire.TestDecodeFrameAllocs.
func TestBinaryDecodeSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("timing ratio; run uninstrumented by make bench")
	}
	enc, body := gateFrame(t)
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	if _, err := wire.DecodeFrame(enc, f); err != nil {
		t.Fatal(err)
	}
	decode := func() int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wire.DecodeFrame(enc, f); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()
	}
	unmarshal := func() int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var req IngestRequest
				if err := json.Unmarshal(body, &req); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()
	}
	binary, jsonNs := bestInterleaved(decode, unmarshal)
	speedup := float64(jsonNs) / float64(binary)
	t.Logf("decode: json=%dns binary=%dns speedup=%.1fx (min %dx)", jsonNs, binary, speedup, decodeSpeedupMin)
	if speedup < decodeSpeedupMin {
		t.Fatalf("binary decode only %.2fx faster than JSON, want >= %dx", speedup, decodeSpeedupMin)
	}
}

// bestInterleaved times a and b gateReps times each, alternating
// between them so drift in machine load hits both sides, and returns
// the fastest ns/op of each.
func bestInterleaved(a, b func() int64) (bestA, bestB int64) {
	bestA, bestB = -1, -1
	for r := 0; r < gateReps; r++ {
		if ns := a(); bestA < 0 || ns < bestA {
			bestA = ns
		}
		if ns := b(); bestB < 0 || ns < bestB {
			bestB = ns
		}
	}
	return bestA, bestB
}

// TestTracingOverhead pins the cost of leaving span tracing on: the
// full binary-ingest handler path (decode, synchronous score, response)
// with a tracer that retains every trace, the worst retention case,
// stays within tracingBound of the same path with no tracer. Both
// services run from one artifact and are driven in process.
func TestTracingOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing ratio; run uninstrumented by make bench")
	}
	m, err := pmuoutage.TrainModel(trainOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := gateFrame(t)
	handler := func(tr *obs.Tracer) http.Handler {
		svc, err := service.New(context.Background(), service.Config{
			Shards:         []service.ShardSpec{{Name: "east", Model: m}},
			RestartBackoff: time.Millisecond,
			Tracer:         tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		waitShardReady(t, svc, "east")
		return New(svc, 30*time.Second, nil).Routes()
	}
	off := handler(nil)
	on := handler(obs.NewTracer(obs.TracerConfig{Capacity: 256, SampleEvery: 1}))

	post := func(h http.Handler) {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest?shard=east", bytes.NewReader(enc))
		req.Header.Set("Content-Type", FrameContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
		}
	}
	const iters = 800
	timed := func(h http.Handler) int64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			post(h)
		}
		return time.Since(start).Nanoseconds() / iters
	}
	// Warm both shards and the frame/buffer pools before timing.
	for i := 0; i < 50; i++ {
		post(off)
		post(on)
	}
	offNs, onNs := bestInterleaved(func() int64 { return timed(off) }, func() int64 { return timed(on) })
	ratio := float64(onNs) / float64(offNs)
	t.Logf("tracing: off=%dns on=%dns ratio=%.2fx (bound %.1fx)", offNs, onNs, ratio, tracingBound)
	if ratio > tracingBound {
		t.Fatalf("tracing-on binary ingest is %.2fx the tracing-off path, bound %.1fx", ratio, tracingBound)
	}
}
