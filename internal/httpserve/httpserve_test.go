package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/internal/comm"
	"pmuoutage/internal/service"
	"pmuoutage/internal/wire"
)

// trainOpts is the fast deterministic recipe every test model uses.
func trainOpts(seed int64) pmuoutage.Options {
	return pmuoutage.Options{Case: "ieee14", TrainSteps: 12, Seed: seed, UseDC: true, Workers: 2}
}

// newModelServer boots one single-shard service from a pre-trained
// artifact behind httptest, with optional config mutation.
func newModelServer(t *testing.T, m *pmuoutage.Model, mut func(*service.Config)) (*service.Service, *httptest.Server) {
	t.Helper()
	cfg := service.Config{
		Shards:         []service.ShardSpec{{Name: "east", Model: m}},
		RestartBackoff: time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	svc, err := service.New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(New(svc, 30*time.Second, nil).Routes())
	t.Cleanup(ts.Close)
	waitShardReady(t, svc, "east")
	return svc, ts
}

func waitShardReady(t *testing.T, svc *service.Service, name string) *pmuoutage.System {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if sys, err := svc.System(name); err == nil {
			return sys
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("shard %s never became ready", name)
	return nil
}

// outageTrace simulates n outage samples with missing measurements
// injected on every third one.
func outageTrace(t *testing.T, sys *pmuoutage.System, n int) []pmuoutage.Sample {
	t.Helper()
	samples, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		if i%3 == 0 {
			samples[i] = samples[i].WithMissing(0, len(samples[i].Vm)-1)
		}
	}
	return samples
}

// postIngestJSON round-trips one sample as a JSON body and returns the
// raw response.
func postIngestJSON(t *testing.T, base, shard string, s pmuoutage.Sample) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(IngestRequest{Shard: shard, Sample: s})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// postIngestFrame round-trips one sample as a binary wire frame.
func postIngestFrame(t *testing.T, base, shard string, seq uint32, s pmuoutage.Sample) (int, []byte) {
	t.Helper()
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	var mask []bool
	if len(s.Missing) > 0 {
		mask = make([]bool, len(s.Vm))
		for _, i := range s.Missing {
			mask[i] = true
		}
	}
	if err := f.Pack(seq, s.Vm, s.Va, mask); err != nil {
		t.Fatal(err)
	}
	enc, err := wire.AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	return postFrameBytes(t, base, shard, enc)
}

func postFrameBytes(t *testing.T, base, shard string, enc []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/ingest?shard="+shard, FrameContentType, bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestBinaryIngestMatchesJSON pins the transport-equivalence contract:
// the same outage trace pushed as JSON bodies to one service and as
// binary wire frames to a twin booted from the same artifact produces
// byte-identical response bodies — events included — and the per-mode
// admission counters record each transport.
func TestBinaryIngestMatchesJSON(t *testing.T) {
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	svcJSON, tsJSON := newModelServer(t, m, nil)
	svcBin, tsBin := newModelServer(t, m, nil)
	sys := waitShardReady(t, svcJSON, "east")
	samples := outageTrace(t, sys, 12)

	events := 0
	for i, s := range samples {
		jsStatus, jsBody := postIngestJSON(t, tsJSON.URL, "east", s)
		binStatus, binBody := postIngestFrame(t, tsBin.URL, "east", uint32(i), s)
		if jsStatus != http.StatusOK || binStatus != http.StatusOK {
			t.Fatalf("sample %d: json %d, binary %d\njson: %s\nbinary: %s", i, jsStatus, binStatus, jsBody, binBody)
		}
		if !bytes.Equal(jsBody, binBody) {
			t.Fatalf("sample %d responses diverge:\njson:   %s\nbinary: %s", i, jsBody, binBody)
		}
		var out IngestResponse
		if err := json.Unmarshal(binBody, &out); err != nil {
			t.Fatal(err)
		}
		if out.Event != nil {
			events++
		}
	}
	if events == 0 {
		t.Fatal("outage trace confirmed no events; the equivalence check is vacuous")
	}
	if got := svcJSON.Stats()["east"].FramesJSON; got != uint64(len(samples)) {
		t.Fatalf("json admissions = %d, want %d", got, len(samples))
	}
	if got := svcBin.Stats()["east"].FramesBinary; got != uint64(len(samples)) {
		t.Fatalf("binary admissions = %d, want %d", got, len(samples))
	}
}

// TestBinaryIngestErrors maps corrupt frames and unknown shards onto
// the same status taxonomy the JSON mode uses.
func TestBinaryIngestErrors(t *testing.T) {
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newModelServer(t, m, nil)
	sys := waitShardReady(t, svc, "east")
	samples := outageTrace(t, sys, 1)

	t.Run("corrupt frame 400", func(t *testing.T) {
		status, body := postFrameBytes(t, ts.URL, "east", []byte{0xAA, 0x31, 0x00})
		if status != http.StatusBadRequest {
			t.Fatalf("status = %d: %s", status, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		if e.Retryable {
			t.Fatalf("corrupt frame marked retryable: %+v", e)
		}
	})
	t.Run("bad crc 400", func(t *testing.T) {
		f := wire.GetFrame()
		defer wire.PutFrame(f)
		if err := f.Pack(1, samples[0].Vm, samples[0].Va, nil); err != nil {
			t.Fatal(err)
		}
		enc, err := wire.AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		enc[len(enc)-1] ^= 0xFF
		if status, body := postFrameBytes(t, ts.URL, "east", enc); status != http.StatusBadRequest {
			t.Fatalf("status = %d: %s", status, body)
		}
	})
	t.Run("unknown shard 404", func(t *testing.T) {
		if status, body := postIngestFrame(t, ts.URL, "nope", 1, samples[0]); status != http.StatusNotFound {
			t.Fatalf("status = %d: %s", status, body)
		}
	})
	if snap := svc.Stats()["east"]; snap.FramesBinary != 0 {
		t.Fatalf("failed requests counted as admissions: %+v", snap)
	}
}

// maskIndices converts an assembled sample's missing mask into the
// facade's index form.
func maskIndices(mask []bool) []int {
	var idx []int
	for i, m := range mask {
		if m {
			idx = append(idx, i)
		}
	}
	return idx
}

// seqEvent pairs an event with the wire sequence that confirmed it.
type seqEvent struct {
	Seq   uint32           `json:"seq"`
	Event *pmuoutage.Event `json:"event"`
}

// TestFleetToDetectorE2E wires the whole streaming pipeline: a PMU/PDC
// fleet over real TCP feeds a collector whose sink packs each assembled
// sample into a wire frame for the service's StreamIngest; every confirmed event must be byte-identical to
// replaying the exact assembled samples — missing measurements included
// — through the JSON /v1/ingest endpoint of a twin service booted from
// the same artifact.
func TestFleetToDetectorE2E(t *testing.T) {
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var streamed []seqEvent
	svcStream, _ := newModelServer(t, m, func(cfg *service.Config) {
		cfg.OnEvent = func(shard string, seq uint32, ev *pmuoutage.Event) {
			mu.Lock()
			streamed = append(streamed, seqEvent{Seq: seq, Event: ev})
			mu.Unlock()
		}
	})
	_, tsReplay := newModelServer(t, m, nil)
	sys := waitShardReady(t, svcStream, "east")
	n := sys.Buses()
	samples, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, 10)
	if err != nil {
		t.Fatal(err)
	}

	// Collector → service: record every assembled sample in emission
	// order, then forward it down the stream-ingest path. The tee and
	// the sink run on the same goroutine, so the recorded order is
	// exactly what the detector saw.
	col, err := comm.NewCollector(n, "127.0.0.1:0", 400*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var order []comm.Assembled
	col.SetSink(func(a comm.Assembled) {
		mu.Lock()
		order = append(order, a)
		mu.Unlock()
		// The collector has no retry lane: a sample the shard cannot
		// accept is dropped, and the shard's counters record it.
		f := wire.GetFrame()
		if err := f.Pack(uint32(a.Seq), a.Sample.Vm, a.Sample.Va, a.Sample.Mask); err != nil {
			t.Errorf("pack seq %d: %v", a.Seq, err)
			wire.PutFrame(f)
			return
		}
		if err := svcStream.StreamIngest("east", f); err != nil {
			wire.PutFrame(f)
		}
	})

	// Two PDCs splitting the grid, one PMU per bus, lossless transport;
	// bus 0's PMU goes silent on every third step so the deadline sweep
	// emits those assemblies with a missing-data mask.
	var pdcs []*comm.PDC
	pmus := make([]*comm.PMU, n)
	clusters := [][]int{{0, 1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12, 13}}
	for ci, members := range clusters {
		pdc, err := comm.NewPDC(ci, "127.0.0.1:0", col.Addr(), 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		pdcs = append(pdcs, pdc)
		for _, bus := range members {
			pmu, err := comm.NewPMU(bus, pdc.Addr(), 0, int64(bus)+1)
			if err != nil {
				t.Fatal(err)
			}
			pmus[bus] = pmu
		}
	}
	defer func() {
		for _, p := range pmus {
			_ = p.Close()
		}
		for _, p := range pdcs {
			_ = p.Close()
		}
	}()

	for seq, s := range samples {
		for bus, pmu := range pmus {
			if bus == 0 && seq%3 == 0 {
				continue // inject missing data
			}
			if err := pmu.Send(seq, s.Vm[bus], s.Va[bus]); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Every step is eventually emitted: complete ones on assembly,
	// partial ones by the deadline sweep.
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		got := len(order)
		mu.Unlock()
		if got >= len(samples) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector emitted %d of %d steps", got, len(samples))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	// Wait for the stream consumer to drain, then replay the recorded
	// assemblies — same order, same masks — over JSON HTTP.
	for {
		if svcStream.Stats()["east"].Ingests >= uint64(len(order)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream path scored %d of %d samples", svcStream.Stats()["east"].Ingests, len(order))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if shed := svcStream.Stats()["east"].Shed; shed != 0 {
		t.Fatalf("stream path shed %d frames; equivalence would be vacuous", shed)
	}

	var replayed []seqEvent
	sawMissing := false
	for _, a := range order {
		miss := maskIndices(a.Sample.Mask)
		if len(miss) > 0 {
			sawMissing = true
		}
		status, body := postIngestJSON(t, tsReplay.URL, "east", pmuoutage.Sample{Vm: a.Sample.Vm, Va: a.Sample.Va, Missing: miss})
		if status != http.StatusOK {
			t.Fatalf("replaying seq %d: HTTP %d: %s", a.Seq, status, body)
		}
		var out IngestResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Event != nil {
			replayed = append(replayed, seqEvent{Seq: uint32(a.Seq), Event: out.Event})
		}
	}
	if len(replayed) == 0 {
		t.Fatal("replay confirmed no events; the equivalence check is vacuous")
	}
	if !sawMissing {
		t.Fatal("no assembled sample carried a missing-data mask; injection failed")
	}

	wantJSON, err := json.Marshal(replayed)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	gotJSON, err := json.Marshal(streamed)
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("stream events diverge from JSON replay:\nstream: %s\nreplay: %s", gotJSON, wantJSON)
	}
	if got := svcStream.Stats()["east"].FramesStream; got != uint64(len(order)) {
		t.Fatalf("stream admissions = %d, want %d", got, len(order))
	}
}

// BenchmarkIngestJSON and BenchmarkIngestBinary measure the two HTTP
// transports end to end against a parked monitor path (handler decode +
// synchronous scoring). The decode-only comparison is the ratio gate
// TestBinaryDecodeSpeedup.
func BenchmarkIngestJSON(b *testing.B) {
	base, sample := benchServer(b)
	body, err := json.Marshal(IngestRequest{Shard: "east", Sample: sample})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(base+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
}

func BenchmarkIngestBinary(b *testing.B) {
	base, sample := benchServer(b)
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	if err := f.Pack(1, sample.Vm, sample.Va, nil); err != nil {
		b.Fatal(err)
	}
	enc, err := wire.AppendFrame(nil, f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(base+"/v1/ingest?shard=east", FrameContentType, bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
}

func benchServer(b *testing.B) (string, pmuoutage.Sample) {
	b.Helper()
	m, err := pmuoutage.TrainModel(trainOpts(3))
	if err != nil {
		b.Fatal(err)
	}
	svc, err := service.New(context.Background(), service.Config{
		Shards:         []service.ShardSpec{{Name: "east", Model: m}},
		RestartBackoff: time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	ts := httptest.NewServer(New(svc, 30*time.Second, nil).Routes())
	b.Cleanup(ts.Close)
	deadline := time.Now().Add(time.Minute)
	for !svc.Ready() {
		if time.Now().After(deadline) {
			b.Fatal("shard never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	sys, err := svc.System("east")
	if err != nil {
		b.Fatal(err)
	}
	samples, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ts.URL, samples[0]
}
