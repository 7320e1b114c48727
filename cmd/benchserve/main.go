// Command benchserve measures the serving path end to end: an
// in-process service behind the real HTTP handler on a loopback
// listener, driven open-loop at fixed request rates in both ingest
// modes (JSON bodies and binary wire frames). Each (qps, mode) tier
// reports exact sorted latency percentiles and the shed rate; an
// ingress section isolates the per-sample decode cost of the two
// transports, pinning the binary codec's zero-allocation decode and its
// speedup over encoding/json.
//
// Usage:
//
//	benchserve [-o BENCH_serve.json] [-qps 100,200,400] [-duration 2s] [-smoke]
//
// -smoke runs one abbreviated tier and skips the output file — a fast
// CI gate that the harness still works.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/internal/fleettest"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/loadgen"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/service"
	"pmuoutage/internal/wire"
)

const (
	benchCase  = "ieee14"
	benchBuses = 14
	benchShard = "bench"
	// missCadence injects a missing bus on every third frame so both
	// transports exercise their missing-measurement paths under load.
	missCadence = 3
)

// row is one (qps, mode) tier of the open-loop run.
type row struct {
	QPS      int     `json:"qps"`
	Mode     string  `json:"mode"`
	Sent     int     `json:"sent"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`
	ShedRate float64 `json:"shed_rate"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// ingress is the transport-only comparison: decoding one sample off the
// wire, with no detector or HTTP time.
type ingress struct {
	JSONNsPerSample   int64   `json:"json_ns_per_sample"`
	BinaryNsPerSample int64   `json:"binary_ns_per_sample"`
	Speedup           float64 `json:"speedup"`
	DecodeAllocsPerOp float64 `json:"binary_decode_allocs_per_op"`
}

// traceRow is one tracing mode of the overhead comparison: the full
// binary-ingest handler path (decode, score, respond), driven serially
// in process so the two rows differ only by the tracer.
type traceRow struct {
	Tracing string `json:"tracing"` // "off" or "on"
	NsPerOp int64  `json:"ns_per_op"`
}

// tracingOverhead pins the cost of leaving span tracing on: the "on"
// row runs with tail sampling keeping every trace (the worst retention
// case), and its per-op time must stay within Bound times the "off"
// row.
type tracingOverhead struct {
	Rows  []traceRow `json:"rows"`
	Ratio float64    `json:"ratio"`
	Bound float64    `json:"bound"`
}

type report struct {
	GOMAXPROCS int             `json:"gomaxprocs"`
	Case       string          `json:"case"`
	DurationMs int64           `json:"tier_duration_ms"`
	Rows       []row           `json:"rows"`
	Ingress    ingress         `json:"ingress"`
	Tracing    tracingOverhead `json:"tracing"`
}

// tracingBound is the pinned overhead budget: the traced binary ingest
// path must stay within this factor of the untraced one.
const tracingBound = 1.5

func main() {
	out := flag.String("o", "BENCH_serve.json", "output file")
	qps := flag.String("qps", "100,200,400", "comma-separated request rates")
	duration := flag.Duration("duration", 2*time.Second, "open-loop time per tier")
	smoke := flag.Bool("smoke", false, "one abbreviated tier, no output file")
	flag.Parse()

	tiers, err := parseQPS(*qps)
	if err == nil {
		err = run(*out, tiers, *duration, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchserve:", err)
		os.Exit(1)
	}
}

func parseQPS(list string) ([]int, error) {
	var tiers []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad qps tier %q", part)
		}
		tiers = append(tiers, n)
	}
	return tiers, nil
}

func run(out string, tiers []int, duration time.Duration, smoke bool) error {
	ingressIters := 20000
	if smoke {
		tiers = []int{40}
		duration = 150 * time.Millisecond
		ingressIters = 2000
	}

	m, err := pmuoutage.TrainModel(pmuoutage.Options{
		Case: benchCase, TrainSteps: 12, Seed: 1, UseDC: true,
		Workers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return err
	}
	svc, err := service.New(context.Background(), service.Config{
		Shards:         []service.ShardSpec{{Name: benchShard, Model: m}},
		RestartBackoff: time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	ready, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := fleettest.WaitReady(ready, svc, benchShard); err != nil {
		return err
	}
	srv, err := fleettest.Serve("", httpserve.New(svc, 30*time.Second, nil).Routes())
	if err != nil {
		return err
	}
	defer srv.Kill()
	base := srv.URL

	rep := report{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Case:       benchCase,
		DurationMs: duration.Milliseconds(),
	}
	if rep.Ingress, err = measureIngress(ingressIters); err != nil {
		return err
	}

	bins, jsons, err := pregenerate(512)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for _, qps := range tiers {
		for _, mode := range []string{"json", "binary"} {
			bodies := jsons
			if mode == "binary" {
				bodies = bins
			}
			r, err := runTier(client, base, mode, qps, duration, bodies)
			if err != nil {
				return fmt.Errorf("tier qps=%d mode=%s: %w", qps, mode, err)
			}
			rep.Rows = append(rep.Rows, r)
			fmt.Printf("qps=%-4d %-6s sent=%-5d ok=%-5d shed=%-4d p50=%.2fms p95=%.2fms p99=%.2fms\n",
				r.QPS, r.Mode, r.Sent, r.OK, r.Shed, r.P50Ms, r.P95Ms, r.P99Ms)
		}
	}

	fmt.Printf("ingress: json=%dns binary=%dns speedup=%.1fx decode_allocs=%.1f\n",
		rep.Ingress.JSONNsPerSample, rep.Ingress.BinaryNsPerSample,
		rep.Ingress.Speedup, rep.Ingress.DecodeAllocsPerOp)
	if rep.Ingress.Speedup < 2 {
		return fmt.Errorf("binary ingress only %.2fx faster than JSON, want >= 2x", rep.Ingress.Speedup)
	}
	if rep.Ingress.DecodeAllocsPerOp > 0 {
		return fmt.Errorf("binary decode allocates %.1f/op, want 0", rep.Ingress.DecodeAllocsPerOp)
	}

	traceIters := 4000
	if smoke {
		traceIters = 800
	}
	if rep.Tracing, err = measureTracing(m, bins[0], traceIters); err != nil {
		return err
	}
	fmt.Printf("tracing: off=%dns on=%dns ratio=%.2fx (bound %.1fx)\n",
		rep.Tracing.Rows[0].NsPerOp, rep.Tracing.Rows[1].NsPerOp,
		rep.Tracing.Ratio, rep.Tracing.Bound)
	if rep.Tracing.Ratio > rep.Tracing.Bound {
		return fmt.Errorf("tracing-on binary ingest is %.2fx the tracing-off path, bound %.1fx",
			rep.Tracing.Ratio, rep.Tracing.Bound)
	}
	if smoke {
		fmt.Println("benchserve: smoke ok")
		return nil
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// pregenerate builds n request bodies in both transports from one
// deterministic frame source, so the open-loop sender never generates
// data on the hot path.
func pregenerate(n int) (bins, jsons [][]byte, err error) {
	fs, err := loadgen.NewFrameSource(benchBuses, 96, 1, missCadence)
	if err != nil {
		return nil, nil, err
	}
	defer fs.Close()
	for i := 0; i < n; i++ {
		enc, err := fs.Next()
		if err != nil {
			return nil, nil, err
		}
		bins = append(bins, append([]byte(nil), enc...))
		vm, va, missing := fs.Sample()
		body, err := json.Marshal(httpserve.IngestRequest{
			Shard: benchShard,
			Sample: pmuoutage.Sample{
				Vm:      append([]float64(nil), vm...),
				Va:      append([]float64(nil), va...),
				Missing: missing,
			},
		})
		if err != nil {
			return nil, nil, err
		}
		jsons = append(jsons, body)
	}
	return bins, jsons, nil
}

// runTier fires requests open-loop at a fixed rate: a late response
// never delays the next send, so queueing shows up as latency and shed,
// not as a lower offered rate.
func runTier(client *http.Client, base, mode string, qps int, duration time.Duration, bodies [][]byte) (row, error) {
	url := base + "/v1/ingest"
	contentType := "application/json"
	if mode == "binary" {
		url += "?shard=" + benchShard
		contentType = httpserve.FrameContentType
	}

	var (
		mu        sync.Mutex
		latencies []float64 // ms
		ok, shed  int
		firstErr  error
	)
	var wg sync.WaitGroup
	interval := time.Second / time.Duration(qps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	start := time.Now()
	sent := 0
	for time.Since(start) < duration {
		<-ticker.C
		body := bodies[sent%len(bodies)]
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			resp, err := client.Post(url, contentType, strings.NewReader(string(body)))
			el := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			_ = resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
				latencies = append(latencies, float64(el)/float64(time.Millisecond))
			case http.StatusTooManyRequests:
				shed++
			default:
				if firstErr == nil {
					firstErr = fmt.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return row{}, firstErr
	}
	if len(latencies) == 0 {
		return row{}, fmt.Errorf("no successful requests")
	}
	sort.Float64s(latencies)
	r := row{
		QPS: qps, Mode: mode, Sent: sent, OK: ok, Shed: shed,
		ShedRate: float64(shed) / float64(sent),
		P50Ms:    obs.NearestRank(latencies, 0.50),
		P95Ms:    obs.NearestRank(latencies, 0.95),
		P99Ms:    obs.NearestRank(latencies, 0.99),
	}
	return r, nil
}

// measureIngress times one sample's decode in each transport — JSON
// unmarshal of an IngestRequest vs wire.DecodeFrame into a warm frame —
// and pins the binary path's allocation count.
func measureIngress(iters int) (ingress, error) {
	fs, err := loadgen.NewFrameSource(benchBuses, 96, 2, missCadence)
	if err != nil {
		return ingress{}, err
	}
	defer fs.Close()
	enc, err := fs.Next()
	if err != nil {
		return ingress{}, err
	}
	enc = append([]byte(nil), enc...)
	vm, va, missing := fs.Sample()
	body, err := json.Marshal(httpserve.IngestRequest{
		Shard:  benchShard,
		Sample: pmuoutage.Sample{Vm: vm, Va: va, Missing: missing},
	})
	if err != nil {
		return ingress{}, err
	}

	f := wire.GetFrame()
	defer wire.PutFrame(f)
	if _, err := wire.DecodeFrame(enc, f); err != nil {
		return ingress{}, err
	}

	const reps = 3
	var ing ingress
	ing.BinaryNsPerSample = bestNs(reps, iters, func() error {
		_, err := wire.DecodeFrame(enc, f)
		return err
	})
	ing.JSONNsPerSample = bestNs(reps, iters, func() error {
		var req httpserve.IngestRequest
		return json.Unmarshal(body, &req)
	})
	if ing.BinaryNsPerSample > 0 {
		ing.Speedup = float64(ing.JSONNsPerSample) / float64(ing.BinaryNsPerSample)
	}
	ing.DecodeAllocsPerOp = testing.AllocsPerRun(1000, func() {
		if _, err := wire.DecodeFrame(enc, f); err != nil {
			panic(err)
		}
	})
	return ing, nil
}

// measureTracing times the full binary-ingest handler path — decode,
// synchronous score, response — with tracing disabled vs a tracer that
// retains every trace (the worst retention case), using in-process
// handler dispatch so the two rows differ only by the tracer.
func measureTracing(m *pmuoutage.Model, enc []byte, iters int) (tracingOverhead, error) {
	const reps = 3
	run := func(tr *obs.Tracer) (int64, error) {
		svc, err := service.New(context.Background(), service.Config{
			Shards:         []service.ShardSpec{{Name: benchShard, Model: m}},
			RestartBackoff: time.Millisecond,
			Tracer:         tr,
		})
		if err != nil {
			return 0, err
		}
		defer svc.Close()
		ready, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if _, err := fleettest.WaitReady(ready, svc, benchShard); err != nil {
			return 0, err
		}
		h := httpserve.New(svc, 30*time.Second, nil).Routes()
		post := func() error {
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest?shard="+benchShard, bytes.NewReader(enc))
			req.Header.Set("Content-Type", httpserve.FrameContentType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("ingest status %d: %s", rec.Code, rec.Body.String())
			}
			return nil
		}
		// Warm the shard and the frame/buffer pools before timing.
		for i := 0; i < 50; i++ {
			if err := post(); err != nil {
				return 0, err
			}
		}
		return bestNs(reps, iters, post), nil
	}

	var to tracingOverhead
	off, err := run(nil)
	if err != nil {
		return to, err
	}
	on, err := run(obs.NewTracer(obs.TracerConfig{Capacity: 256, SampleEvery: 1}))
	if err != nil {
		return to, err
	}
	to.Rows = []traceRow{{Tracing: "off", NsPerOp: off}, {Tracing: "on", NsPerOp: on}}
	to.Bound = tracingBound
	if off > 0 {
		to.Ratio = float64(on) / float64(off)
	}
	return to, nil
}

// bestNs reports the fastest per-op time over reps runs of iters calls.
func bestNs(reps, iters int, fn func() error) int64 {
	best := int64(-1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				panic(err)
			}
		}
		if ns := time.Since(start).Nanoseconds() / int64(iters); best < 0 || ns < best {
			best = ns
		}
	}
	return best
}
