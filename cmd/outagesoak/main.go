// Command outagesoak is the churn soak harness: it boots a full
// in-process fleet — model registry, N traced outaged primaries, one
// canary backend, the router front-end — drives labelled detect and
// binary-frame ingest traffic at it, and injects churn mid-stream:
// rolling reloads by fingerprint, an incremental patch broadcast, an
// abrupt backend kill, a restart on the same address, and a gated
// canary promotion. Throughout, it samples per-stage latency quantiles
// and SLO signals from GET /v1/fleet and checks every detect answer
// against the library's: byte-identical reports, and the true line
// isolated.
//
// The run emits a structured report (default SOAK_report.json):
// the churn event log, a time series of isolation accuracy,
// false-alarm rate, per-hop p50/p95/p99 latencies, shed/error counts
// and availability, the canary report read before promotion, plus the
// slowest traces the router's tail sampler retained. In -smoke mode
// (wired to `make soak-smoke`) the run is short and the harness asserts
// its own acceptance: every churn event succeeded, no dropped or
// differing detects across the kill, a byte-identical promotable
// canary, accuracy held, and at least one retained multi-hop trace
// stitching route → proxy → backend stages.
//
// Example:
//
//	outagesoak -duration 60s -backends 3 -out SOAK_report.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/client"
	"pmuoutage/internal/fleettest"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/registry"
	"pmuoutage/internal/router"
	"pmuoutage/internal/service"
	"pmuoutage/internal/wire"
)

func main() {
	var (
		duration = flag.Duration("duration", 30*time.Second, "traffic phase length")
		tick     = flag.Duration("tick", 2*time.Second, "report time-series resolution")
		nback    = flag.Int("backends", 2, "primary backend count (at least 2: one gets killed)")
		caseName = flag.String("case", "ieee14", "grid case every shard trains on")
		steps    = flag.Int("train-steps", 12, "training window length")
		seed     = flag.Int64("seed", 7, "training seed")
		out      = flag.String("out", "SOAK_report.json", "report output path")
		smoke    = flag.Bool("smoke", false, "short self-asserting run wired to `make soak-smoke`")
	)
	flag.Parse()
	cfg := soakConfig{
		Case:       *caseName,
		Backends:   *nback,
		DurationMS: duration.Milliseconds(),
		TickMS:     tick.Milliseconds(),
		TrainSteps: *steps,
		Seed:       *seed,
		Smoke:      *smoke,
	}
	if *smoke {
		cfg.DurationMS = (6 * time.Second).Milliseconds()
		cfg.TickMS = time.Second.Milliseconds()
		cfg.Backends = 2
	}
	if cfg.Backends < 2 {
		log.Fatal("outagesoak: -backends must be at least 2 (the churn schedule kills one)")
	}
	rep, err := run(cfg)
	if rep != nil {
		if werr := writeReport(*out, rep); werr != nil {
			log.Fatalf("outagesoak: writing report: %v", werr)
		}
		fmt.Printf("outagesoak: report written to %s (%d ticks, %d events)\n", *out, len(rep.Series), len(rep.Events))
	}
	if err != nil {
		log.Fatalf("outagesoak: %v", err)
	}
	if *smoke {
		if err := assertSmoke(rep); err != nil {
			log.Fatalf("soak-smoke: %v", err)
		}
		fmt.Println("soak-smoke ok")
	}
}

// soakConfig is the run's shape, echoed into the report so a stored
// SOAK_report.json is self-describing.
type soakConfig struct {
	Case       string `json:"case"`
	Backends   int    `json:"backends"`
	DurationMS int64  `json:"duration_ms"`
	TickMS     int64  `json:"tick_ms"`
	TrainSteps int    `json:"train_steps"`
	Seed       int64  `json:"seed"`
	Smoke      bool   `json:"smoke"`
}

// soakEvent is one churn action and its outcome.
type soakEvent struct {
	AtMS   int64  `json:"at_ms"`
	Kind   string `json:"kind"` // reload | patch | kill | restart | canary | promote
	Detail string `json:"detail,omitempty"`
	Err    string `json:"error,omitempty"`
}

// stageRow is one hop's latency quantiles over the SLO window at a
// tick, read from the router's /v1/fleet stage histograms.
type stageRow struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// tickRow is one time-series sample of the soak.
type tickRow struct {
	AtMS              int64               `json:"at_ms"`
	Detects           uint64              `json:"detects"`
	Errors            uint64              `json:"errors"`
	Shed              uint64              `json:"shed"`
	IngestFrames      uint64              `json:"ingest_frames"`
	IsolationAccuracy float64             `json:"isolation_accuracy"`
	FalseAlarmRate    float64             `json:"false_alarm_rate"`
	P50MS             float64             `json:"p50_ms"`
	P95MS             float64             `json:"p95_ms"`
	P99MS             float64             `json:"p99_ms"`
	Availability      float64             `json:"availability"`
	Stages            map[string]stageRow `json:"stages,omitempty"`
}

// soakTotals summarizes the whole run.
type soakTotals struct {
	Detects           uint64  `json:"detects"`
	Errors            uint64  `json:"errors"`
	Shed              uint64  `json:"shed"`
	IngestFrames      uint64  `json:"ingest_frames"`
	OutageRequests    uint64  `json:"outage_requests"`
	CorrectIsolations uint64  `json:"correct_isolations"`
	NormalRequests    uint64  `json:"normal_requests"`
	FalseAlarms       uint64  `json:"false_alarms"`
	Mismatched        uint64  `json:"mismatched"`
	IsolationAccuracy float64 `json:"isolation_accuracy"`
	FalseAlarmRate    float64 `json:"false_alarm_rate"`
	TracesKept        uint64  `json:"traces_kept"`
	TracesDropped     uint64  `json:"traces_dropped"`
}

// soakReport is the SOAK_report.json document.
type soakReport struct {
	Config     soakConfig  `json:"config"`
	StartMS    int64       `json:"start_ms"`
	DurationMS int64       `json:"duration_ms"`
	Events     []soakEvent `json:"events"`
	Series     []tickRow   `json:"series"`
	Totals     soakTotals  `json:"totals"`
	// FirstMismatch is the diff of the first routed answer that
	// differed from the library's.
	FirstMismatch string            `json:"first_mismatch,omitempty"`
	Canary        *api.CanaryReport `json:"canary,omitempty"`
	SlowestTraces []api.Trace       `json:"slowest_traces"`
	MultiHopTrace *api.Trace        `json:"multi_hop_trace,omitempty"`
}

// bucket accumulates one tick's observations.
type bucket struct {
	detects, errors, shed, frames uint64
	outage, outageOK              uint64
	normal, falseAlarm            uint64
	mismatched                    uint64
	latMS                         []float64
	fleet                         *api.FleetHealth
}

// stats is the run-wide collector the traffic goroutines feed.
type stats struct {
	mu            sync.Mutex
	start         time.Time
	tick          time.Duration
	ticks         []*bucket
	firstMismatch string
}

func (s *stats) at(now time.Time) *bucket {
	i := int(now.Sub(s.start) / s.tick)
	if i < 0 {
		i = 0
	}
	for len(s.ticks) <= i {
		s.ticks = append(s.ticks, &bucket{})
	}
	return s.ticks[i]
}

func (s *stats) detect(now time.Time, latency time.Duration, res detectResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.at(now)
	b.detects++
	b.latMS = append(b.latMS, float64(latency)/float64(time.Millisecond))
	switch res.status {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		b.shed++
		return
	default:
		b.errors++
		return
	}
	if res.mismatch != nil {
		b.mismatched++
		if s.firstMismatch == "" {
			s.firstMismatch = res.mismatch.Error()
		}
	}
	if res.outage {
		b.outage++
		if res.correct {
			b.outageOK++
		}
	} else {
		b.normal++
		if res.alarmed {
			b.falseAlarm++
		}
	}
}

func (s *stats) frame(now time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.at(now)
	if ok {
		b.frames++
	} else {
		b.errors++
	}
}

func (s *stats) fleetSnapshot(now time.Time, fh *api.FleetHealth) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.at(now).fleet = fh
}

func run(cfg soakConfig) (*soakReport, error) {
	soakDur := time.Duration(cfg.DurationMS) * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), soakDur+4*time.Minute)
	defer cancel()
	quiet := obs.NewTextLogger(io.Discard, slog.LevelDebug)

	// One trained artifact published once; every backend boots from the
	// registry by fingerprint, and the same fingerprint is the canary
	// candidate. Reload, patch and promote churn resolve to the same
	// weights (the patch is trained under the base seed, so it
	// reproduces the original signatures), keeping the local truth
	// valid across every churn event.
	fmt.Printf("outagesoak: training %s (%d steps)...\n", cfg.Case, cfg.TrainSteps)
	opts := pmuoutage.Options{Case: cfg.Case, TrainSteps: cfg.TrainSteps, UseDC: true, Seed: cfg.Seed, Workers: 2}
	model, err := pmuoutage.TrainModelContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	fp := model.Fingerprint()

	regDir, err := os.MkdirTemp("", "outagesoak-registry-")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(regDir) }()
	store, err := registry.NewStore(regDir)
	if err != nil {
		return nil, err
	}
	if _, err := store.Publish(model); err != nil {
		return nil, err
	}
	regSrv, err := fleettest.Serve("", registry.NewServer(store, quiet).Routes())
	if err != nil {
		return nil, err
	}
	defer regSrv.Kill()

	patchPath, err := buildPatch(ctx, model, regDir, opts.Seed)
	if err != nil {
		return nil, err
	}

	// The primaries plus one canary backend, every one traced: tail
	// sampling keeps slow and erroneous traces plus a deterministic
	// 1-in-1 sample so the post-run trace assertions never race the
	// sampler.
	backends := make([]*soakBackend, 0, cfg.Backends+2)
	defer func() {
		for _, b := range backends {
			b.kill()
		}
	}()
	for i := 0; i <= cfg.Backends; i++ {
		b, err := newSoakBackend(ctx, "", regSrv.URL, fp, opts, quiet)
		if err != nil {
			return nil, err
		}
		backends = append(backends, b)
	}
	primaries := backends[:cfg.Backends]
	primaryURLs := make([]string, len(primaries))
	for i, b := range primaries {
		primaryURLs[i] = b.srv.URL
	}
	tracer := obs.NewTracer(obs.TracerConfig{Capacity: 512, SlowThreshold: 50 * time.Millisecond, SampleEvery: 1})
	rt, err := router.New(ctx, router.Config{
		Backends:       primaryURLs,
		CanaryBackends: []string{backends[cfg.Backends].srv.URL},
		Candidate:      fp,
		CanaryPercent:  50,
		MinPairs:       1,
		ProbeEvery:     20 * time.Millisecond,
		FleetWindow:    3 * time.Duration(cfg.TickMS) * time.Millisecond,
		Logger:         quiet,
		Tracer:         tracer,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	rtSrv, err := fleettest.Serve("", rt.Routes())
	if err != nil {
		return nil, err
	}
	defer rtSrv.Kill()
	// No retries anywhere on the data path: a request the fleet drops
	// must show as an error, not be papered over by a second attempt.
	rtCli, err := client.New(client.Config{BaseURL: rtSrv.URL, MaxRetries: -1})
	if err != nil {
		return nil, err
	}

	// Known-truth traffic: one outage scenario and one normal-operation
	// scenario against the same model the fleet serves.
	sys, err := pmuoutage.NewSystemFromModel(model)
	if err != nil {
		return nil, err
	}
	line := sys.ValidLines()[0]
	outage, err := newScenario(ctx, sys, rtSrv.URL, line, true)
	if err != nil {
		return nil, err
	}
	normal, err := newScenario(ctx, sys, rtSrv.URL, line, false)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	st := &stats{start: start, tick: time.Duration(cfg.TickMS) * time.Millisecond}
	rep := &soakReport{Config: cfg, StartMS: start.UnixMilli()}
	tctx, tcancel := context.WithDeadline(ctx, start.Add(soakDur))
	defer tcancel()

	var wg sync.WaitGroup
	// Two detect drivers alternating outage/normal scenarios, one
	// binary-frame ingest streamer — all through the router.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; tctx.Err() == nil; i += 2 {
				sc := normal
				if i%4 < 2 { // alternate scenario pairs per driver
					sc = outage
				}
				t0 := time.Now()
				res := sc.detect(tctx)
				if tctx.Err() != nil {
					return
				}
				st.detect(t0, time.Since(t0), res)
				select {
				case <-tctx.Done():
				case <-time.After(5 * time.Millisecond):
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		streamFrames(tctx, rtCli, outage.samples[0], st)
	}()

	// The fleet sampler: one /v1/fleet snapshot per tick feeds the
	// per-hop latency series.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(st.tick)
		defer tk.Stop()
		for {
			select {
			case <-tctx.Done():
				return
			case now := <-tk.C:
				var fh api.FleetHealth
				raw, err := rtCli.GetRaw(tctx, "/v1/fleet")
				if err == nil && raw.Decode(&fh) == nil {
					st.fleetSnapshot(now.Add(-st.tick/2), &fh)
				}
			}
		}
	}()

	// The churn schedule, as fractions of the traffic phase.
	note := func(kind, detail string, err error) {
		ev := soakEvent{AtMS: time.Since(start).Milliseconds(), Kind: kind, Detail: detail}
		if err != nil {
			ev.Err = err.Error()
		}
		rep.Events = append(rep.Events, ev)
		fmt.Printf("outagesoak: %6dms %-8s %s err=%v\n", ev.AtMS, kind, detail, err)
	}
	churn := func() {
		frac := func(f float64) bool {
			select {
			case <-tctx.Done():
				return false
			case <-time.After(time.Until(start.Add(time.Duration(f * float64(soakDur))))):
				return true
			}
		}
		// Rolling reload: one backend at a time, by fingerprint, via the
		// backend's own control plane (the router's /v1/reload is a
		// broadcast — rolling is the operator's safer cadence). The
		// artifact is cached from boot, so each pull must be a
		// conditional one the registry answers 304 Not Modified.
		if !frac(0.25) {
			return
		}
		for i, b := range primaries {
			_, before := b.reg.Stats()
			_, err := b.cli.ReloadModel(tctx, "soak", fp)
			_, after := b.reg.Stats()
			if err == nil && after == before {
				err = errors.New("reload by fingerprint made no conditional registry pull")
			}
			note("reload", fmt.Sprintf("backend %d by fingerprint, %d not-modified pulls", i, after), err)
		}
		// Patch apply, broadcast through the router.
		if !frac(0.45) {
			return
		}
		var fr api.FleetReload
		body, _ := json.Marshal(api.ReloadRequest{Shard: "soak", PatchPath: patchPath}) // plain strings always marshal
		raw, err := rtCli.PostRaw(tctx, "/v1/reload", "application/json", body)
		if err == nil {
			err = raw.Decode(&fr)
		}
		if err == nil {
			err = servesModel("patch", fr.Failed, fr.Results, fp)
		}
		note("patch", filepath.Base(patchPath), err)
		// Abrupt kill mid-traffic; the router must fail in-flight
		// requests over.
		if !frac(0.6) {
			return
		}
		addr := primaries[0].srv.Addr
		primaries[0].kill()
		note("kill", "backend 0 "+addr, nil)
		// Restart on the same address; the prober readmits it.
		if !frac(0.8) {
			return
		}
		nb, err := newSoakBackend(tctx, addr, regSrv.URL, fp, opts, quiet)
		if err == nil {
			backends = append(backends, nb)
		}
		note("restart", "backend 0 "+addr, err)
		// Canary: read the report before promoting, then promote the
		// candidate onto every primary and keep detecting on it.
		if !frac(0.9) {
			return
		}
		rep.Canary = &api.CanaryReport{}
		raw, err = rtCli.GetRaw(tctx, "/v1/canary/report")
		if err == nil {
			err = raw.Decode(rep.Canary)
		}
		note("canary", fmt.Sprintf("%d/%d pairs identical", rep.Canary.Identical, rep.Canary.Pairs), err)
		note("promote", fp[:12], promote(tctx, rtCli, outage, fp))
	}
	churn()
	<-tctx.Done()
	wg.Wait()
	rep.DurationMS = time.Since(start).Milliseconds()

	buildSeries(st, rep)
	rep.Totals.TracesKept, rep.Totals.TracesDropped = tracer.KeptCounter().Load(), tracer.DroppedCounter().Load()
	rep.SlowestTraces = slowestTraces(tracer.Traces(), 5)
	rep.MultiHopTrace = findMultiHop(ctx, rtCli, tracer.Traces())
	return rep, nil
}

// promote reloads every primary onto the candidate through the router,
// checks each shard now serves it, and requires a detect on the
// promoted fleet to still answer like the library.
func promote(ctx context.Context, rt *client.Client, sc *scenario, fp string) error {
	var pr api.PromoteResponse
	raw, err := rt.PostRaw(ctx, "/v1/canary/promote", "application/json", []byte(`{}`))
	if err == nil {
		err = raw.Decode(&pr)
	}
	if err == nil {
		err = servesModel("promotion", pr.Failed, pr.Results, fp)
	}
	if err != nil {
		return err
	}
	switch res := sc.detect(ctx); {
	case res.status != http.StatusOK:
		return fmt.Errorf("detect after promotion: HTTP %d", res.status)
	case res.mismatch != nil:
		return fmt.Errorf("detect after promotion: %w", res.mismatch)
	}
	return nil
}

// servesModel checks a fleet-wide reload's outcome: complete, at least
// one shard reloaded, and every reloaded shard serving fingerprint fp.
func servesModel(what string, failed bool, results []api.BackendReload, fp string) error {
	if failed {
		return fmt.Errorf("%s incomplete on some backend: %+v", what, results)
	}
	reloaded := 0
	for _, br := range results {
		for _, res := range br.Results {
			if res.Model != fp {
				return fmt.Errorf("%s left %s serving %s, want %s", what, br.Backend, res.Model, fp)
			}
			reloaded++
		}
	}
	if reloaded == 0 {
		return fmt.Errorf("%s reloaded no shard", what)
	}
	return nil
}

// scenario is one labelled arm of the known-truth traffic: its samples,
// the library's reports for them, and a router client that stamps the
// canary evaluation headers on every request (so the router's shadow
// diff scores the arm) and never retries (so a dropped detect shows).
type scenario struct {
	outage  bool
	line    int // the outage line, the truth for the outage arm
	samples []pmuoutage.Sample
	want    []*pmuoutage.Report
	cli     *client.Client
}

func newScenario(ctx context.Context, sys *pmuoutage.System, base string, line int, outage bool) (*scenario, error) {
	var lines []int
	name, truth := "normal", "none"
	if outage {
		lines, name, truth = []int{line}, "outage-line-"+strconv.Itoa(line), strconv.Itoa(line)
	}
	samples, err := sys.SimulateOutageContext(ctx, lines, 2)
	if err != nil {
		return nil, err
	}
	want, err := sys.DetectBatchContext(ctx, samples)
	if err != nil {
		return nil, err
	}
	cli, err := client.New(client.Config{
		BaseURL:    base,
		HTTPClient: &http.Client{Transport: evalLabels{scenario: name, truth: truth}},
		MaxRetries: -1,
	})
	if err != nil {
		return nil, err
	}
	return &scenario{outage: outage, line: line, samples: samples, want: want, cli: cli}, nil
}

// evalLabels is the transport that stamps the canary evaluation
// headers on every request.
type evalLabels struct{ scenario, truth string }

func (l evalLabels) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(api.EvalScenarioHeader, l.scenario)
	req.Header.Set(api.EvalTruthHeader, l.truth)
	return http.DefaultTransport.RoundTrip(req)
}

// detectResult is one routed detect classified against its scenario.
type detectResult struct {
	outage   bool
	status   int   // HTTP status; 0 when no response arrived
	correct  bool  // a report confirms an outage naming the true line
	alarmed  bool  // some report claims an outage
	mismatch error // the reports differ from the library's
}

// detect posts the scenario's samples through the router and classifies
// the answer, comparing it byte for byte with the library's reports.
func (sc *scenario) detect(ctx context.Context) detectResult {
	res := detectResult{outage: sc.outage}
	reports, err := sc.cli.Detect(ctx, "soak", sc.samples)
	if err != nil {
		var serr *client.ServerError
		if errors.As(err, &serr) {
			res.status = serr.Status
		}
		return res
	}
	res.status = http.StatusOK
	res.mismatch = httpserve.CompareReports(reports, sc.want)
	for _, r := range reports {
		if r == nil || !r.Outage {
			continue
		}
		res.alarmed = true
		for _, l := range r.Lines {
			if l.Index == sc.line {
				res.correct = true
			}
		}
	}
	return res
}

// streamFrames pushes binary wire frames through the router's ingest
// route at a steady cadence — the collector-stream side of the soak.
func streamFrames(ctx context.Context, rt *client.Client, sample pmuoutage.Sample, st *stats) {
	seq := uint32(1)
	for ctx.Err() == nil {
		f := wire.GetFrame()
		err := f.Pack(seq, sample.Vm, sample.Va, nil)
		var enc []byte
		if err == nil {
			enc, err = wire.AppendFrame(nil, f)
		}
		wire.PutFrame(f)
		if err != nil {
			st.frame(time.Now(), false)
			return
		}
		t0 := time.Now()
		raw, err := rt.PostRaw(ctx, "/v1/ingest?shard=soak", httpserve.FrameContentType, enc)
		if ctx.Err() != nil {
			return
		}
		st.frame(t0, err == nil && raw.Status == http.StatusOK)
		seq++
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// buildPatch trains an identity patch (base seed reproduces the
// original signatures) for the first valid line and encodes it next to
// the registry dir, so the patch-apply churn exercises the real reload
// path without changing the model the truth was computed against.
func buildPatch(ctx context.Context, model *pmuoutage.Model, dir string, seed int64) (string, error) {
	sys, err := pmuoutage.NewSystemFromModel(model)
	if err != nil {
		return "", err
	}
	p, err := pmuoutage.TrainModelPatchContext(ctx, model, pmuoutage.PatchSpec{
		Lines: []int{sys.ValidLines()[0]},
		Seed:  seed,
	})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "soak-patch.bin")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := p.Encode(f); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}

// buildSeries folds the tick buckets into the report's time series and
// totals.
func buildSeries(st *stats, rep *soakReport) {
	st.mu.Lock()
	defer st.mu.Unlock()
	tot := &rep.Totals
	for i, b := range st.ticks {
		row := tickRow{
			AtMS:         int64(i+1) * rep.Config.TickMS,
			Detects:      b.detects,
			Errors:       b.errors,
			Shed:         b.shed,
			IngestFrames: b.frames,
		}
		if b.outage > 0 {
			row.IsolationAccuracy = float64(b.outageOK) / float64(b.outage)
		}
		if b.normal > 0 {
			row.FalseAlarmRate = float64(b.falseAlarm) / float64(b.normal)
		}
		sort.Float64s(b.latMS)
		row.P50MS = obs.NearestRank(b.latMS, 0.50)
		row.P95MS = obs.NearestRank(b.latMS, 0.95)
		row.P99MS = obs.NearestRank(b.latMS, 0.99)
		if b.fleet != nil {
			row.Availability = b.fleet.Availability
			row.Stages = map[string]stageRow{}
			for stage, h := range b.fleet.Stages {
				row.Stages[stage] = stageRow{
					Count: h.Count,
					P50MS: h.Quantile(0.50) * 1e3,
					P95MS: h.Quantile(0.95) * 1e3,
					P99MS: h.Quantile(0.99) * 1e3,
				}
			}
		}
		rep.Series = append(rep.Series, row)
		tot.Detects += b.detects
		tot.Errors += b.errors
		tot.Shed += b.shed
		tot.IngestFrames += b.frames
		tot.OutageRequests += b.outage
		tot.CorrectIsolations += b.outageOK
		tot.NormalRequests += b.normal
		tot.FalseAlarms += b.falseAlarm
		tot.Mismatched += b.mismatched
	}
	rep.FirstMismatch = st.firstMismatch
	if tot.OutageRequests > 0 {
		tot.IsolationAccuracy = float64(tot.CorrectIsolations) / float64(tot.OutageRequests)
	}
	if tot.NormalRequests > 0 {
		tot.FalseAlarmRate = float64(tot.FalseAlarms) / float64(tot.NormalRequests)
	}
}

// slowestTraces returns the n longest retained traces.
func slowestTraces(traces []api.Trace, n int) []api.Trace {
	sort.Slice(traces, func(i, j int) bool { return traces[i].DurationNS > traces[j].DurationNS })
	if len(traces) > n {
		traces = traces[:n]
	}
	return traces
}

// findMultiHop hunts the router's retained ring for a trace whose
// merged view (GET /debug/traces?id=) spans the route, proxy, and
// backend stages — the cross-process acceptance artifact.
func findMultiHop(ctx context.Context, rt *client.Client, traces []api.Trace) *api.Trace {
	for i, tr := range traces {
		if i >= 25 {
			break
		}
		var merged api.Trace
		raw, err := rt.GetRaw(ctx, "/debug/traces?id="+tr.TraceID)
		if err != nil || raw.Decode(&merged) != nil {
			continue
		}
		stages := map[string]bool{}
		for _, s := range merged.Spans {
			stages[s.Stage] = true
		}
		if stages["route"] && stages["proxy"] && stages["http"] && stages["detect"] {
			return &merged
		}
	}
	return nil
}

// assertSmoke is the acceptance gate `make soak-smoke` runs.
func assertSmoke(rep *soakReport) error {
	kinds := map[string]int{}
	for _, ev := range rep.Events {
		if ev.Err != "" {
			return fmt.Errorf("%s event failed: %s", ev.Kind, ev.Err)
		}
		kinds[ev.Kind]++
	}
	if kinds["reload"] != rep.Config.Backends {
		return fmt.Errorf("%d rolling reloads, want one per primary (%d)", kinds["reload"], rep.Config.Backends)
	}
	for _, kind := range []string{"patch", "kill", "restart", "canary", "promote"} {
		if kinds[kind] == 0 {
			return fmt.Errorf("no %s event", kind)
		}
	}
	if c := rep.Canary; c.Pairs == 0 {
		return errors.New("canary report has no shadow pairs")
	} else if c.Identical != c.Pairs || c.Mismatched != 0 {
		return fmt.Errorf("shadow responses not byte-identical: %d/%d identical, %d mismatched", c.Identical, c.Pairs, c.Mismatched)
	} else if !c.Promotable {
		return fmt.Errorf("canary report not promotable: %v", c.Reasons)
	}
	if len(rep.Series) < 3 {
		return fmt.Errorf("only %d time-series ticks", len(rep.Series))
	}
	staged := 0
	for _, row := range rep.Series {
		if len(row.Stages) > 0 {
			staged++
		}
	}
	if staged == 0 {
		return errors.New("no tick carries per-stage latency quantiles")
	}
	if rep.Totals.OutageRequests == 0 || rep.Totals.NormalRequests == 0 {
		return errors.New("labelled traffic missing an arm (outage or normal)")
	}
	if rep.Totals.IsolationAccuracy < 0.9 {
		return fmt.Errorf("isolation accuracy %.3f under churn, want >= 0.9", rep.Totals.IsolationAccuracy)
	}
	if rep.Totals.Errors > 0 {
		return fmt.Errorf("%d detect/ingest errors; a kill mid-traffic must not drop requests", rep.Totals.Errors)
	}
	if rep.Totals.Mismatched > 0 {
		return fmt.Errorf("%d routed detects differ from the library answer; first: %s", rep.Totals.Mismatched, rep.FirstMismatch)
	}
	if rep.Totals.IngestFrames == 0 {
		return errors.New("no binary ingest frames made it through")
	}
	if rep.MultiHopTrace == nil {
		return errors.New("no retained multi-hop trace stitching route, proxy, and backend stages")
	}
	return nil
}

func writeReport(path string, rep *soakReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// soakBackend is one in-process outaged with its shard booted from the
// registry by fingerprint and span tracing on.
type soakBackend struct {
	svc *service.Service
	reg *registry.Client
	cli *client.Client
	srv *fleettest.Server
}

func newSoakBackend(ctx context.Context, addr, regURL, fp string, opts pmuoutage.Options, logger *slog.Logger) (*soakBackend, error) {
	reg, err := registry.NewClient(regURL, nil)
	if err != nil {
		return nil, err
	}
	model, err := reg.Model(ctx, fp)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(ctx, service.Config{
		Shards: []service.ShardSpec{{Name: "soak", Opts: opts, Model: model}},
		Tracer: obs.NewTracer(obs.TracerConfig{Capacity: 1024, SlowThreshold: 50 * time.Millisecond, SampleEvery: 1}),
		Logger: logger,
	})
	if err != nil {
		return nil, err
	}
	hs := httpserve.New(svc, 30*time.Second, logger)
	hs.SetModelSource(reg)
	srv, err := fleettest.Serve(addr, hs.Routes())
	if err != nil {
		svc.Close()
		return nil, err
	}
	cli, err := client.New(client.Config{BaseURL: srv.URL})
	if err != nil {
		srv.Kill()
		svc.Close()
		return nil, err
	}
	return &soakBackend{svc: svc, reg: reg, cli: cli, srv: srv}, nil
}

// kill tears the backend down abruptly: in-flight proxied requests see
// transport errors — the fail-over case the soak is probing.
func (b *soakBackend) kill() {
	b.srv.Kill()
	b.svc.Close()
}
