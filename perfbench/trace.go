package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"sort"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/client"
	"pmuoutage/internal/cases"
	"pmuoutage/internal/dataset"
	"pmuoutage/internal/detect"
	"pmuoutage/internal/grid"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/par"
	"pmuoutage/internal/pmunet"
	"pmuoutage/internal/powerflow"
	"pmuoutage/internal/wire"
)

// traceWorkload is the traced run: the workload's open-loop phase
// untraced and then with spans, the layer ladder replayed serially on
// a slice of the inputs, and direct timings of the detect, training,
// model and patch layers. It fills res.Metrics with the per-layer
// metrics.
func traceWorkload(ctx context.Context, w *workload, st *stack, in inputEnv, items []item, seconds float64, spans *spanLog, res *runResult) error {
	nproc := runtime.GOMAXPROCS(0)
	hc := newHTTPClient(nproc)
	defer hc.CloseIdleConnections()
	openN := int(w.openRate * openShare * seconds / 2)
	keep := &responses{}

	before := serviceTotals(st)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := gcCPU()
	plain := openLoop(ctx, "open", nproc, w.openRate, openN, sender(hc, w, st.front(), items, 0, keep), nil)
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&m1)
	traced := openLoop(ctx, "open-traced", nproc, w.openRate, openN, sender(hc, w, st.front(), items, openN, keep), spans)
	after := serviceTotals(st)
	res.Phases = []*phase{plain, traced}
	for _, p := range res.Phases {
		res.attempted += p.attempted()
		res.failed += p.bad()
	}
	if _, _, err := checkAll(ctx, w, st, items, keep.got, res); err != nil {
		return err
	}

	set := res.set
	set("bench.late_p99_ms", plain.LateP99Ms, "ms")
	set("obs.trace_overhead", traced.P50Ms/plain.P50Ms, "ratio")
	set("gc.cpu_frac", (gc1-gc0)/(cpu1-cpu0), "ratio")
	set("alloc.bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(plain.Sent), "B")
	d := after.since(before)
	set("service.queue_p99_us", d.stages["queue"].Quantile(0.99)*1e6, "us")
	set("service.batch_mean", ratio(float64(d.samples), float64(d.batches)), "count")
	set("service.shed", float64(d.shed), "count")
	enc := d.stages["encode"]
	set("httpserve.encode_us", ratio(enc.Sum, float64(enc.Count))*1e6, "us")

	rt := st.router
	if rt == nil {
		// The ladder's top rung needs a router even where the workload
		// sends no traffic through one.
		var err error
		if rt, err = startRouter(ctx, st.backends); err != nil {
			return err
		}
		defer rt.close()
	}
	lad, err := newLadder(hc, st, rt)
	if err != nil {
		return err
	}
	n := min(probeCount(in.g.N()), len(items))
	slice := items[:n]
	requests, err := detectItems(slice)
	if err != nil {
		return err
	}
	detectMed, err := lad.run(ctx, spans, "detect", n, lad.detectRungs(requests))
	if err != nil {
		return err
	}
	frames, err := frameItems(slice)
	if err != nil {
		return err
	}
	ingest, err := lad.ingestRungs(frames)
	if err != nil {
		return err
	}
	ingestMed, err := lad.run(ctx, spans, "ingest", n, ingest)
	if err != nil {
		return err
	}
	set("stream.ingest_us", ingestMed.total[0], "us")
	top := detectMed
	if w.ingest {
		top = ingestMed
	}
	set("httpserve.handler_us", top.self[2], "us")
	set("client.rtt_us", top.total[3], "us")
	set("http.loopback_us", top.self[3], "us")
	set("router.hop_us", top.self[4], "us")
	set("router.retries", float64(rt.rt.Registry().CounterValue("router_failovers_total")), "count")
	ej, err := ejections(ctx, hc, rt.lb.url)
	if err != nil {
		return err
	}
	set("router.ejections", float64(ej), "count")
	decUs, err := jsonDecodeUs(requests)
	if err != nil {
		return err
	}
	set("httpserve.decode_us", decUs, "us")
	ns, allocs, err := wireDecode(frames)
	if err != nil {
		return err
	}
	set("wire.decode_ns", ns, "ns")
	set("wire.decode_allocs", allocs, "count")

	ledgerShares(w, st, plain.P50Ms, plain.P99Ms, top, res)

	if err := detectProbes(ctx, in, st, items, probeCount(in.g.N()), res); err != nil {
		return err
	}
	if err := trainingLayers(ctx, in.g, res); err != nil {
		return err
	}
	return artifactLayers(ctx, st, in.seed, res)
}

// probeCount sizes the serial replays so each costs about the same
// wall time on any grid: fewer samples on larger grids.
func probeCount(buses int) int { return max(8, min(40, 4000/buses)) }

// ratio is a/b for a count b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// svcTotals sums the service counters of every backend.
type svcTotals struct {
	samples, batches, shed uint64
	stages                 map[string]api.Hist
}

func serviceTotals(st *stack) svcTotals {
	t := svcTotals{stages: map[string]api.Hist{}}
	for _, b := range st.backends {
		snap := b.svc.Stats()[shardName]
		t.samples += snap.Samples
		t.batches += snap.Batches
		t.shed += snap.Shed
		for name, h := range snap.Stages {
			if cur, ok := t.stages[name]; ok {
				if err := cur.Merge(h); err == nil {
					t.stages[name] = cur
				}
				continue
			}
			t.stages[name] = h
		}
	}
	return t
}

func (t svcTotals) since(prev svcTotals) svcTotals {
	out := svcTotals{samples: t.samples - prev.samples, batches: t.batches - prev.batches,
		shed: t.shed - prev.shed, stages: map[string]api.Hist{}}
	for name, h := range t.stages {
		out.stages[name] = h.Delta(prev.stages[name])
	}
	return out
}

func ejections(ctx context.Context, hc *http.Client, routerURL string) (uint64, error) {
	cli, err := client.New(client.Config{BaseURL: routerURL, MaxRetries: -1, HTTPClient: hc})
	if err != nil {
		return 0, err
	}
	raw, err := cli.GetRaw(ctx, "/v1/backends")
	if err != nil {
		return 0, err
	}
	var fs api.FleetStatus
	if err := json.Unmarshal(raw.Body, &fs); err != nil {
		return 0, fmt.Errorf("router backends: %w", err)
	}
	var n uint64
	for _, b := range fs.Primary {
		n += b.Ejections
	}
	return n, nil
}

// rung is one layer of the ladder: the same input sent one layer
// further out than the rung below it.
type rung struct {
	name string
	call func(ctx context.Context, k int) error
}

// ladder replays inputs serially down the layer ladder, library call
// → service → in-process HTTP handler → loopback client → router, so
// each rung's self time is its difference from the rung below.
type ladder struct {
	st      *stack
	b       *backend
	handler http.Handler
	direct  *client.Client
	routed  *client.Client
}

func newLadder(hc *http.Client, st *stack, rt *fleetRouter) (*ladder, error) {
	b := st.backends[0]
	direct, err := client.New(client.Config{BaseURL: b.lb.url, MaxRetries: -1, HTTPClient: hc})
	if err != nil {
		return nil, err
	}
	routed, err := client.New(client.Config{BaseURL: rt.lb.url, MaxRetries: -1, HTTPClient: hc})
	if err != nil {
		return nil, err
	}
	return &ladder{st: st, b: b, handler: b.http.Routes(), direct: direct, routed: routed}, nil
}

// rungTimes are one ladder's results in microseconds: each rung's
// median total time, and its median self time — the per-input
// difference from the rung below, paired so that the cost of the input
// itself cancels.
type rungTimes struct {
	total, self []float64
}

// run replays inputs 0..n-1 through every rung, twice. Each input's
// rung calls are children of one span named after the ladder.
func (l *ladder) run(ctx context.Context, spans *spanLog, name string, n int, rungs []rung) (rungTimes, error) {
	totals := make([][]float64, len(rungs))
	selfs := make([][]float64, len(rungs))
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < n; k++ {
			root := spans.newID()
			start := time.Now()
			prev := 0.0
			for r, rg := range rungs {
				t0 := time.Now()
				if err := rg.call(ctx, k); err != nil {
					return rungTimes{}, fmt.Errorf("%s ladder, rung %s: %w", name, rg.name, err)
				}
				t1 := time.Now()
				spans.add(root, rg.name, t0, t1)
				d := us(t1.Sub(t0))
				totals[r] = append(totals[r], d)
				selfs[r] = append(selfs[r], d-prev)
				prev = d
			}
			spans.record(root, 0, name, start, time.Now())
		}
	}
	var out rungTimes
	for r := range rungs {
		out.total = append(out.total, median(totals[r]))
		out.self = append(out.self, median(selfs[r]))
	}
	return out, nil
}

// detectRungs replays single-sample detect requests.
func (l *ladder) detectRungs(items []item) []rung {
	return []rung{
		{"detect", func(ctx context.Context, k int) error {
			_, err := l.st.sys.DetectContext(ctx, items[k].sample)
			return err
		}},
		{"service", func(ctx context.Context, k int) error {
			_, err := l.b.svc.DetectBatch(ctx, shardName, []pmuoutage.Sample{items[k].sample})
			return err
		}},
		{"httpserve", func(ctx context.Context, k int) error {
			return l.serveInProcess(ctx, "/v1/detect", "application/json", items[k].body)
		}},
		{"client", func(ctx context.Context, k int) error {
			return rawOK(l.direct.PostRaw(ctx, "/v1/detect", "application/json", items[k].body))
		}},
		{"router", func(ctx context.Context, k int) error {
			return rawOK(l.routed.PostRaw(ctx, "/v1/detect", "application/json", items[k].body))
		}},
	}
}

// ingestRungs replays binary-frame ingest; the library rung is a fresh
// facade Monitor over the same model.
func (l *ladder) ingestRungs(frames []item) ([]rung, error) {
	mon, err := l.st.sys.NewMonitor(0, 0)
	if err != nil {
		return nil, err
	}
	path := "/v1/ingest?shard=" + shardName
	return []rung{
		{"stream", func(_ context.Context, k int) error {
			_, err := mon.Ingest(frames[k].sample)
			return err
		}},
		{"service", func(ctx context.Context, k int) error {
			_, err := l.b.svc.Ingest(ctx, shardName, frames[k].sample)
			return err
		}},
		{"httpserve", func(ctx context.Context, k int) error {
			return l.serveInProcess(ctx, path, httpserve.FrameContentType, frames[k].body)
		}},
		{"client", func(ctx context.Context, k int) error {
			return rawOK(l.direct.PostRaw(ctx, path, httpserve.FrameContentType, frames[k].body))
		}},
		{"router", func(ctx context.Context, k int) error {
			return rawOK(l.routed.PostRaw(ctx, path, httpserve.FrameContentType, frames[k].body))
		}},
	}, nil
}

// serveInProcess runs the backend's real handler with no network.
func (l *ladder) serveInProcess(ctx context.Context, path, contentType string, body []byte) error {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	l.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return nil
}

func rawOK(raw *client.RawResponse, err error) error {
	if err != nil {
		return err
	}
	if raw.Status != http.StatusOK {
		return fmt.Errorf("status %d: %s", raw.Status, raw.Body)
	}
	return nil
}

// frameItems gives every item a binary wire-frame body.
func frameItems(items []item) ([]item, error) {
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	out := make([]item, len(items))
	for k, it := range items {
		body, err := frameBody(f, uint32(k), it.sample)
		if err != nil {
			return nil, err
		}
		out[k] = item{sample: it.sample, truth: it.truth, body: body}
	}
	return out, nil
}

// detectItems gives every item a single-sample detect body.
func detectItems(items []item) ([]item, error) {
	out := make([]item, len(items))
	for k, it := range items {
		body, err := detectBody(it.sample)
		if err != nil {
			return nil, err
		}
		out[k] = item{sample: it.sample, truth: it.truth, body: body}
	}
	return out, nil
}

// jsonDecodeUs is the median time to decode one detect request body
// the way the HTTP handler does (unknown fields rejected).
func jsonDecodeUs(items []item) (float64, error) {
	var times []float64
	for pass := 0; pass < 3; pass++ {
		for _, it := range items {
			t0 := time.Now()
			dec := json.NewDecoder(bytes.NewReader(it.body))
			dec.DisallowUnknownFields()
			var req api.DetectRequest
			if err := dec.Decode(&req); err != nil {
				return 0, err
			}
			times = append(times, us(time.Since(t0)))
		}
	}
	return median(times), nil
}

// wireDecode is the median per-frame decode time over batches of
// decodes, and the allocations of one decode into a reused frame.
func wireDecode(frames []item) (ns, allocs float64, err error) {
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	const batch = 200
	var times []float64
	for r := 0; r < 20; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := wire.DecodeFrame(frames[i%len(frames)].body, f); err != nil {
				return 0, 0, err
			}
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/batch)
	}
	k := 0
	allocs = testing.AllocsPerRun(200, func() {
		_, err = wire.DecodeFrame(frames[k%len(frames)].body, f)
		k++
	})
	return median(times), allocs, err
}

// ledgerShares prints the layer ledger, each rung's self time as a
// share of the run's untraced p50, and records the shares. The router
// rung counts only where the workload's traffic crosses a router; what
// the rungs do not cover (generator wait, contention between
// concurrent requests) is the rest.
func ledgerShares(w *workload, st *stack, p50ms, p99ms float64, top rungTimes, res *runResult) {
	p50us := p50ms * 1e3
	keys := []string{"library", "service", "httpserve", "loopback", "router"}
	names := []string{"detect", "service", "httpserve", "loopback", "router"}
	if w.ingest {
		names[0] = "stream"
	}
	onPath := len(top.self)
	if st.router == nil {
		onPath--
	}
	fmt.Printf("ledger %s: p50 %.1f us\n", w.name, p50us)
	covered := 0.0
	for r, self := range top.self {
		share := 0.0
		if r < onPath {
			share = self / p50us
			covered += self
		}
		fmt.Printf("  %-10s self %9.1f us  share %6.3f\n", names[r], self, share)
		res.set("ledger."+keys[r]+"_share", share, "ratio")
	}
	res.set("ledger.rest_share", (p50us-covered)/p50us, "ratio")
	res.set("ledger.p50_ms", p50ms, "ms")
	res.set("ledger.p99_ms", p99ms, "ms")
	fmt.Printf("  %-10s      %9.1f us  share %6.3f\n", "rest", p50us-covered, (p50us-covered)/p50us)
}

// detectProbes times System.Detect on three probe sets built from the
// workload's own inputs — normal samples (the energy-gate path),
// outage samples with complete data (the scoring path) and the same
// outages with buses lost — and measures the input properties a gain
// may depend on. A workload whose pool has no outage samples
// simulates some for the probes.
func detectProbes(ctx context.Context, in inputEnv, st *stack, items []item, n int, res *runResult) error {
	rng := rand.New(rand.NewSource(in.seed + 101))
	var gate, score, masked []pmuoutage.Sample
	for _, it := range items {
		plain := pmuoutage.Sample{Vm: it.sample.Vm, Va: it.sample.Va}
		switch {
		case len(it.truth) == 0 && len(gate) < n:
			gate = append(gate, plain)
		case len(it.truth) > 0 && len(score) < n:
			score = append(score, plain)
			m := it.sample.Missing
			if len(m) == 0 {
				m = lossPattern(rng, in.g, it.truth, len(masked)%2 == 0)
			}
			masked = append(masked, pmuoutage.Sample{Vm: it.sample.Vm, Va: it.sample.Va, Missing: m})
		}
	}
	if len(score) == 0 {
		valid := st.sys.ValidLines()
		rng.Shuffle(len(valid), func(i, j int) { valid[i], valid[j] = valid[j], valid[i] })
		extra, err := labelledPool(ctx, in, valid[:min(n, len(valid))], 1, true)
		if err != nil {
			return err
		}
		for _, it := range extra {
			if len(it.truth) > 0 {
				score = append(score, pmuoutage.Sample{Vm: it.sample.Vm, Va: it.sample.Va})
				masked = append(masked, it.sample)
			}
		}
	}
	if len(gate) == 0 || len(score) == 0 {
		return fmt.Errorf("detect probes: %d normal and %d outage samples", len(gate), len(score))
	}
	if err := serviceOverhead(ctx, st, gate, res); err != nil {
		return err
	}
	for _, set := range []struct {
		name, allocs string
		samples      []pmuoutage.Sample
	}{
		{"detect.gate_us", "detect.allocs_gate", gate},
		{"detect.score_us", "detect.allocs_score", score},
		{"detect.score_masked_us", "detect.allocs_masked", masked},
	} {
		us, allocs, err := timeDetect(ctx, st.sys, set.samples)
		if err != nil {
			return err
		}
		res.set(set.name, us, "us")
		res.set(set.allocs, allocs, "count")
	}

	// DetectBatch's pool at GOMAXPROCS workers against one worker, on
	// the scoring path.
	batch := func(workers int) (float64, error) {
		var ts []float64
		for r := 0; r < 3; r++ {
			t0 := time.Now()
			if _, err := par.Map(ctx, workers, len(score), func(ctx context.Context, i int) (*pmuoutage.Report, error) {
				return st.sys.DetectContext(ctx, score[i])
			}); err != nil {
				return 0, err
			}
			ts = append(ts, time.Since(t0).Seconds())
		}
		return median(ts), nil
	}
	one, err := batch(1)
	if err != nil {
		return err
	}
	all, err := batch(runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	res.set("par.batch_speedup", one/all, "ratio")

	samples := make([]pmuoutage.Sample, len(items))
	for i, it := range items {
		samples[i] = it.sample
	}
	reports, err := st.sys.DetectBatchContext(ctx, samples)
	if err != nil {
		return err
	}
	fired, missing := 0, 0
	masks := map[string]bool{}
	for i, r := range reports {
		if r.Outage {
			fired++
		}
		if m := samples[i].Missing; len(m) > 0 {
			missing++
			key := append([]int(nil), m...)
			sort.Ints(key)
			masks[fmt.Sprint(key)] = true
		}
	}
	res.set("detect.fired_frac", float64(fired)/float64(len(items)), "ratio")
	res.set("detect.missing_frac", float64(missing)/float64(len(items)), "ratio")
	res.set("detect.distinct_masks", float64(len(masks)), "count")

	var ts []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		if _, err := pmuoutage.NewSystemFromModel(st.model); err != nil {
			return err
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	res.set("detect.from_model_ms", median(ts), "ms")
	return nil
}

// serviceOverhead times the service layer's own cost, serially, on the
// normal probes, where the detector runs only its energy gate and the
// overhead is not lost in the scoring path's noise: Service.DetectBatch
// minus System.Detect, and Service.Ingest minus Monitor.Ingest, each
// paired per sample.
func serviceOverhead(ctx context.Context, st *stack, gate []pmuoutage.Sample, res *runResult) error {
	svc := st.backends[0].svc
	mon, err := st.sys.NewMonitor(0, 0)
	if err != nil {
		return err
	}
	var detect, ingest []float64
	for pass := 0; pass < 3; pass++ {
		for _, s := range gate {
			t0 := time.Now()
			if _, err := st.sys.DetectContext(ctx, s); err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := svc.DetectBatch(ctx, shardName, []pmuoutage.Sample{s}); err != nil {
				return err
			}
			t2 := time.Now()
			if _, err := mon.Ingest(s); err != nil {
				return err
			}
			t3 := time.Now()
			if _, err := svc.Ingest(ctx, shardName, s); err != nil {
				return err
			}
			t4 := time.Now()
			detect = append(detect, us(t2.Sub(t1)-t1.Sub(t0)))
			ingest = append(ingest, us(t4.Sub(t3)-t3.Sub(t2)))
		}
	}
	res.set("service.overhead_us", median(detect), "us")
	res.set("service.ingest_us", median(ingest), "us")
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeDetect is the median Detect time over two passes of samples and
// the mean allocations per Detect.
func timeDetect(ctx context.Context, sys *pmuoutage.System, samples []pmuoutage.Sample) (medUs, allocs float64, err error) {
	var ts []float64
	for pass := 0; pass < 2; pass++ {
		for _, s := range samples {
			t0 := time.Now()
			if _, err := sys.DetectContext(ctx, s); err != nil {
				return 0, 0, err
			}
			ts = append(ts, us(time.Since(t0)))
		}
	}
	k := 0
	allocs = testing.AllocsPerRun(len(samples), func() {
		_, err = sys.DetectContext(ctx, samples[k%len(samples)])
		k++
	})
	return median(ts), allocs, err
}

// trainingLayers reruns the training pipeline piece by piece — data
// generation, detector training — and times flat-start AC power flows:
// on the served grid, which takes the dense solver, and on synth300,
// which takes the sparse one (powerflow.SparseBusThreshold) that no
// workload's grid reaches.
func trainingLayers(ctx context.Context, g *grid.Grid, res *runResult) error {
	nproc := runtime.GOMAXPROCS(0)
	t0 := time.Now()
	data, err := dataset.GenerateContext(ctx, g, dataset.GenConfig{Steps: trainSteps, Seed: 1, UseDC: useDC, Workers: nproc})
	if err != nil {
		return err
	}
	res.set("dataset.generate_s", time.Since(t0).Seconds(), "s")
	nw, err := pmunet.Build(g, max(3, g.N()/10))
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := detect.TrainContext(ctx, data, nw, detect.Config{Workers: nproc}); err != nil {
		return err
	}
	res.set("detect.train_s", time.Since(t0).Seconds(), "s")
	if err := timeAC(g, "powerflow.ac", res); err != nil {
		return err
	}
	sparse, err := cases.Load("synth300")
	if err != nil {
		return err
	}
	return timeAC(sparse, "powerflow.sparse_ac", res)
}

// timeAC sets prefix_solve_ms and prefix_iters to the median of three
// flat-start AC solves of g.
func timeAC(g *grid.Grid, prefix string, res *runResult) error {
	var ts, iters []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		sol, err := powerflow.SolveAC(g, powerflow.Options{FlatStart: true})
		if err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
		ts = append(ts, ms(time.Since(t0)))
		iters = append(iters, float64(sol.Iterations))
	}
	res.set(prefix+"_solve_ms", median(ts), "ms")
	res.set(prefix+"_iters", median(iters), "count")
	return nil
}

// artifactLayers times the model codec and two patch cycles against a
// scratch service: patch training, encoding, local apply, and the
// service's hot swap.
func artifactLayers(ctx context.Context, st *stack, seed int64, res *runResult) error {
	var buf bytes.Buffer
	var enc, dec []float64
	for r := 0; r < 3; r++ {
		buf.Reset()
		t0 := time.Now()
		if err := st.model.Encode(&buf); err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(t0)))
		t0 = time.Now()
		if _, err := pmuoutage.DecodeModel(bytes.NewReader(buf.Bytes())); err != nil {
			return err
		}
		dec = append(dec, ms(time.Since(t0)))
	}
	res.set("model.encode_ms", median(enc), "ms")
	res.set("model.decode_ms", median(dec), "ms")
	res.set("model.bytes", float64(buf.Len()), "B")

	b, err := startBackend(ctx, st.model)
	if err != nil {
		return err
	}
	defer b.close()
	rng := rand.New(rand.NewSource(seed + 7))
	valid := st.sys.ValidLines()
	base := st.model
	var train, apply, swap []float64
	for c := 0; c < 2; c++ {
		t0 := time.Now()
		p, err := pmuoutage.TrainModelPatchContext(ctx, base, pmuoutage.PatchSpec{
			Lines: []int{valid[rng.Intn(len(valid))]}, Seed: seed*31 + int64(c)})
		if err != nil {
			return err
		}
		train = append(train, ms(time.Since(t0)))
		buf.Reset()
		if err := p.Encode(&buf); err != nil {
			return err
		}
		t0 = time.Now()
		next, err := p.Apply(base)
		if err != nil {
			return err
		}
		apply = append(apply, ms(time.Since(t0)))
		t0 = time.Now()
		if err := b.svc.ApplyPatch(ctx, shardName, p); err != nil {
			return err
		}
		swap = append(swap, ms(time.Since(t0)))
		base = next
	}
	res.set("patch.train_ms", median(train), "ms")
	res.set("patch.apply_ms", median(apply), "ms")
	res.set("patch.bytes", float64(buf.Len()), "B")
	res.set("service.swap_ms", median(swap), "ms")
	return nil
}
