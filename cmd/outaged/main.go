// Command outaged serves power-line outage detection over JSON/HTTP.
//
// It fronts internal/service: a sharded pool of trained detection
// systems (one per grid case / region) with request coalescing, bounded
// queues with load-shedding, per-request deadlines, and per-shard
// supervisors that rebuild failed shards with exponential backoff.
//
// Endpoints:
//
//	POST /v1/detect  {"shard":"east","samples":[{"vm":[...],"va":[...]}]}
//	POST /v1/ingest  {"shard":"east","sample":{"vm":[...],"va":[...]}}
//	GET  /v1/shards  per-shard state (training/ready/failed), restarts
//	GET  /v1/stats   per-shard counters: requests, batches, shed, latency
//	GET  /healthz    200 once at least one shard serves, else 503
//
// Typed service errors map onto HTTP statuses (unknown shard 404, bad
// sample 400, overloaded 429, unavailable 503, deadline 504); retryable
// conditions carry a Retry-After header. Example:
//
//	outaged -addr :8080 -shards east=ieee14,west=ieee30 -dc
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pmuoutage"
	"pmuoutage/client"
	"pmuoutage/internal/fleettest"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/registry"
	"pmuoutage/internal/service"
	"pmuoutage/internal/wire"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		debugAddr  = flag.String("debug-addr", "", "optional listen address for pprof and expvar (e.g. localhost:6060); empty disables")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug (per-request spans), info, warn, error")
		shards     = flag.String("shards", "main=ieee14", "comma-separated name=case shard list")
		models     = flag.String("models", "", "comma-separated name=ref list of model artifacts to boot shards from (skips training); a ref is a file path or, with -registry, a hex SHA-256 fingerprint")
		regURL     = flag.String("registry", "", "model registry base URL (e.g. http://localhost:8090); enables boot and hot reload by fingerprint")
		replicas   = flag.Int("replicas", 0, "serve loops per shard sharing one model (0 = 1)")
		trainSteps = flag.Int("train-steps", 0, "training window length per scenario (0 = library default)")
		seed       = flag.Int64("seed", 1, "base seed; shard i trains with seed+i")
		dc         = flag.Bool("dc", false, "use the linear DC power-flow substrate (faster training)")
		workers    = flag.Int("workers", 0, "worker pool size per shard (0 = GOMAXPROCS)")
		maxBatch   = flag.Int("max-batch", 0, "max samples per coalesced detector batch (0 = default)")
		queue      = flag.Int("queue", 0, "pending-sample bound per shard before load-shedding (0 = default)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		confirm    = flag.Int("confirm", 0, "streaming confirmation streak (0 = default)")
		traceCap   = flag.Int("trace-capacity", 256, "retained-trace ring size for GET /debug/traces (0 disables tracing)")
		traceSlow  = flag.Duration("trace-slow", 100*time.Millisecond, "tail sampling keeps traces at least this slow (negative disables the latency rule)")
		traceEvery = flag.Int("trace-sample", 0, "tail sampling also keeps every Nth trace regardless of latency (0 disables)")
		smoke      = flag.Bool("smoke", false, "self-test: serve on an ephemeral port, round-trip one detect, exit")
		smokeCase  = flag.String("smoke-case", "ieee14", "grid case the -smoke shard trains on (e.g. synth300 for the scale smoke)")
		smokeSteps = flag.Int("smoke-steps", 12, "training window length of the -smoke shard")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger := obs.NewTextLogger(os.Stderr, level)

	if *smoke {
		if err := runSmoke(*smokeCase, *smokeSteps); err != nil {
			log.Fatalf("serve-smoke: %v", err)
		}
		fmt.Println("serve-smoke ok")
		return
	}

	cfg, err := buildConfig(*shards, *trainSteps, *seed, *dc, *workers, *maxBatch, *queue, *confirm)
	if err != nil {
		log.Fatal(err)
	}
	var reg *registry.Client
	if *regURL != "" {
		if reg, err = registry.NewClient(*regURL, nil); err != nil {
			log.Fatal(err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := applyModels(ctx, &cfg, *models, reg); err != nil {
		log.Fatal(err)
	}
	for i := range cfg.Shards {
		cfg.Shards[i].Replicas = *replicas
	}
	cfg.Logger = logger
	if *traceCap > 0 {
		cfg.Tracer = obs.NewTracer(obs.TracerConfig{
			Capacity:      *traceCap,
			SlowThreshold: *traceSlow,
			SampleEvery:   *traceEvery,
		})
	}
	if err := run(ctx, *addr, *debugAddr, cfg, *timeout, logger, reg); err != nil {
		log.Fatal(err)
	}
}

// buildConfig parses the -shards flag ("east=ieee14,west=ieee30"; a bare
// name defaults its case) into a service configuration.
func buildConfig(shardFlag string, trainSteps int, seed int64, dc bool, workers, maxBatch, queue, confirm int) (service.Config, error) {
	cfg := service.Config{MaxBatch: maxBatch, QueueDepth: queue, Confirm: confirm}
	for i, spec := range strings.Split(shardFlag, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, caseName, _ := strings.Cut(spec, "=")
		cfg.Shards = append(cfg.Shards, service.ShardSpec{
			Name: name,
			Opts: pmuoutage.Options{
				Case:       caseName,
				TrainSteps: trainSteps,
				Seed:       seed + int64(i),
				UseDC:      dc,
				Workers:    workers,
			},
		})
	}
	if len(cfg.Shards) == 0 {
		return cfg, fmt.Errorf("%w: -shards is empty", service.ErrConfig)
	}
	return cfg, nil
}

// applyModels parses the -models flag ("east=/path/a.json,...") and
// pins each named shard to the decoded artifact, so the daemon boots
// serving without retraining. A value that is a hex SHA-256
// fingerprint is pulled from the registry (verified on receipt)
// instead of the filesystem.
func applyModels(ctx context.Context, cfg *service.Config, modelFlag string, reg *registry.Client) error {
	for _, spec := range strings.Split(modelFlag, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, ref, ok := strings.Cut(spec, "=")
		if !ok || ref == "" {
			return fmt.Errorf("%w: -models entry %q is not name=ref", service.ErrConfig, spec)
		}
		var m *pmuoutage.Model
		var err error
		if isFingerprint(ref) {
			if reg == nil {
				return fmt.Errorf("%w: -models entry %q names a fingerprint but no -registry is set", service.ErrConfig, spec)
			}
			m, err = reg.Model(ctx, ref)
		} else {
			m, err = httpserve.LoadModel(ref)
		}
		if err != nil {
			return fmt.Errorf("loading model for shard %q: %w", name, err)
		}
		found := false
		for i := range cfg.Shards {
			if cfg.Shards[i].Name == name {
				cfg.Shards[i].Model = m
				found = true
			}
		}
		if !found {
			return fmt.Errorf("%w: -models names unknown shard %q", service.ErrConfig, name)
		}
	}
	return nil
}

// isFingerprint reports whether ref looks like a hex SHA-256 content
// fingerprint (64 hex chars) rather than a file path.
func isFingerprint(ref string) bool {
	if len(ref) != 64 {
		return false
	}
	for _, c := range ref {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// shardGeneration reads one shard's incarnation counter (0 if absent).
func shardGeneration(svc *service.Service, name string) uint64 {
	for _, st := range svc.Shards() {
		if st.Name == name {
			return st.Generation
		}
	}
	return 0
}

// run starts the service, serves HTTP (plus the optional pprof/expvar
// debug listener) until ctx cancels, then shuts everything down
// gracefully.
func run(ctx context.Context, addr, debugAddr string, cfg service.Config, timeout time.Duration, logger *slog.Logger, reg *registry.Client) error {
	svc, err := service.New(ctx, cfg)
	if err != nil {
		return err
	}
	defer svc.Close()

	srv := httpserve.New(svc, timeout, logger)
	if reg != nil {
		srv.SetModelSource(reg)
	}
	httpSrv := &http.Server{Addr: addr, Handler: srv.Routes()}
	servers := []*http.Server{httpSrv}
	errc := make(chan error, 2)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("outaged listening", "addr", addr, "shards", len(cfg.Shards))
	if debugAddr != "" {
		dbgSrv := &http.Server{Addr: debugAddr, Handler: httpserve.DebugMux()}
		servers = append(servers, dbgSrv)
		go func() { errc <- dbgSrv.ListenAndServe() }()
		logger.Info("debug endpoints listening", "addr", debugAddr)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	sdCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range servers {
		if err := s.Shutdown(sdCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	return nil
}

// runSmoke is the -smoke self-test wired to `make serve-smoke` (and,
// with -smoke-case synth300, `make smoke-scale`): bring a one-shard
// service up on an ephemeral port, round-trip one detect request over
// real HTTP, check it against the library answer, and shut down
// cleanly.
func runSmoke(caseName string, trainSteps int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	// Debug-level logging to a discard sink: the smoke run exercises the
	// full span/access-log path without polluting its own output.
	smokeLog := obs.NewTextLogger(io.Discard, slog.LevelDebug)
	cfg := service.Config{
		Shards: []service.ShardSpec{{Name: "smoke", Opts: pmuoutage.Options{
			Case: caseName, TrainSteps: trainSteps, UseDC: true, Seed: 7,
		}}},
		Logger: smokeLog,
	}
	svc, err := service.New(ctx, cfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	srv, err := fleettest.Serve("", httpserve.New(svc, 30*time.Second, smokeLog).Routes())
	if err != nil {
		return err
	}
	defer srv.Kill() // a no-op after the graceful stop below
	cl, err := client.New(client.Config{BaseURL: srv.URL})
	if err != nil {
		return err
	}

	// Wait for the shard to train, then build a known-outage sample.
	sys, err := fleettest.WaitReady(ctx, svc, "smoke")
	if err != nil {
		return err
	}
	line := sys.ValidLines()[0]
	samples, err := sys.SimulateOutageContext(ctx, []int{line}, 2)
	if err != nil {
		return err
	}
	want, err := sys.DetectBatchContext(ctx, samples)
	if err != nil {
		return err
	}

	got, err := cl.Detect(ctx, "smoke", samples)
	if err != nil {
		return err
	}
	if err := httpserve.CompareReports(got, want); err != nil {
		return err
	}
	if !got[0].Outage {
		return fmt.Errorf("smoke detect on line %d reported no outage", line)
	}

	// Hot reload: retrain with the same options (yielding an identical
	// model), swap it in, and verify the daemon answers byte-identically
	// with a bumped generation — the train-once/serve-many path end to
	// end over real HTTP.
	genBefore := shardGeneration(svc, "smoke")
	res, err := cl.Reload(ctx, "smoke", "")
	if err != nil {
		return err
	}
	if res.Generation != genBefore+1 {
		return fmt.Errorf("reload generation = %d, want %d", res.Generation, genBefore+1)
	}
	if res.Model != sys.Model().Fingerprint() {
		return fmt.Errorf("reloaded model fingerprint %s differs from the original %s", res.Model, sys.Model().Fingerprint())
	}
	got2, err := cl.Detect(ctx, "smoke", samples)
	if err != nil {
		return err
	}
	if err := httpserve.CompareReports(got2, want); err != nil {
		return fmt.Errorf("after reload: %w", err)
	}

	// Binary ingest: one wire-frame round-trip over real HTTP must land
	// on the same monitor path and answer with the JSON response shape.
	if err := checkBinaryIngest(ctx, cl, samples[0]); err != nil {
		return err
	}

	// Telemetry end-to-end: a caller-supplied trace ID must be echoed on
	// the response, and /metrics must show the traffic just served with
	// internally consistent histograms.
	if err := checkTraceEcho(ctx, cl); err != nil {
		return err
	}
	if err := checkMetrics(ctx, cl); err != nil {
		return err
	}

	sdCtx, sdCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer sdCancel()
	if err := srv.Stop(sdCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// checkBinaryIngest encodes one sample with the wire codec, posts it as
// application/x-pmu-frame, and asserts the daemon accepts and scores
// it.
func checkBinaryIngest(ctx context.Context, cl *client.Client, sample pmuoutage.Sample) error {
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	if err := f.Pack(1, sample.Vm, sample.Va, nil); err != nil {
		return err
	}
	enc, err := wire.AppendFrame(nil, f)
	if err != nil {
		return err
	}
	raw, err := cl.PostRaw(ctx, "/v1/ingest?shard=smoke", httpserve.FrameContentType, enc)
	if err != nil {
		return err
	}
	var out httpserve.IngestResponse
	if err := raw.Decode(&out); err != nil {
		return fmt.Errorf("binary ingest: %w", err)
	}
	if out.Shard != "smoke" {
		return fmt.Errorf("binary ingest answered for shard %q", out.Shard)
	}
	return nil
}

// checkTraceEcho sends a caller-supplied X-Trace-Id and asserts the
// daemon echoes it back verbatim.
func checkTraceEcho(ctx context.Context, cl *client.Client) error {
	const want = "feedfacecafe0001"
	raw, err := cl.GetRaw(obs.WithTraceID(ctx, want), "/healthz")
	if err != nil {
		return err
	}
	if raw.TraceID != want {
		return fmt.Errorf("trace echo: sent %q, got %q back", want, raw.TraceID)
	}
	return nil
}

// checkMetrics scrapes /metrics and asserts the smoke traffic is
// visible there: non-zero detect counters for the smoke shard and
// cumulative stage-histogram buckets that never decrease with le.
func checkMetrics(ctx context.Context, cl *client.Client) error {
	raw, err := cl.GetRaw(ctx, "/metrics")
	if err != nil {
		return err
	}
	if raw.Status != http.StatusOK {
		return fmt.Errorf("GET /metrics: HTTP %d", raw.Status)
	}
	return verifyMetricsBody(string(raw.Body))
}

// verifyMetricsBody is the pure assertion half of checkMetrics.
func verifyMetricsBody(body string) error {
	counterAtLeast := func(series string, min float64) error {
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, series+" ") {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(series)+1:]), 64)
			if err != nil {
				return fmt.Errorf("parsing %q: %v", line, err)
			}
			if v < min {
				return fmt.Errorf("%s = %v, want at least %v", series, v, min)
			}
			return nil
		}
		return fmt.Errorf("/metrics lacks series %s", series)
	}
	for _, series := range []string{
		`pmu_requests_total{shard="smoke"}`,
		`pmu_batches_total{shard="smoke"}`,
		`pmu_samples_total{shard="smoke"}`,
		`pmu_reloads_total{shard="smoke"}`,
		`pmu_ingest_frames_total{shard="smoke",mode="binary"}`,
		`pmu_http_requests_total{path="/v1/detect"}`,
		`pmu_http_requests_total{path="/v1/ingest"}`,
	} {
		if err := counterAtLeast(series, 1); err != nil {
			return err
		}
	}
	// Rendered bucket counts are cumulative, so within one series (the
	// labels before the le pair) they must never decrease.
	last := map[string]float64{}
	found := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "pmu_stage_seconds_bucket{") &&
			!strings.HasPrefix(line, "pmu_http_seconds_bucket{") {
			continue
		}
		cut := strings.Index(line, `le="`)
		sp := strings.LastIndexByte(line, ' ')
		if cut < 0 || sp < cut {
			return fmt.Errorf("malformed bucket line %q", line)
		}
		key := line[:cut]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return fmt.Errorf("parsing %q: %v", line, err)
		}
		if prev, ok := last[key]; ok && v < prev {
			return fmt.Errorf("bucket counts decreased within %s: %v after %v", key, v, prev)
		}
		last[key] = v
		found = true
	}
	if !found {
		return errors.New("/metrics has no stage histogram buckets")
	}
	return nil
}
