// Command outagerouter is the fleet front-end for outaged: it spreads
// detect and ingest traffic across N backend daemons with health-aware
// least-loaded balancing and fail-over, mirrors a fraction of traffic
// to a canary fleet running a candidate model, and gates promotion of
// that candidate on the structured canary diff report.
//
// Endpoints:
//
//	POST /v1/detect         proxied byte-identically to a primary backend
//	POST /v1/ingest         same, JSON or binary frames (query preserved)
//	POST /v1/reload         broadcast a reload to every primary backend
//	GET  /v1/backends       fleet view: health, ejections, load, shards
//	GET  /v1/fleet          aggregated fleet health: scraped per-backend
//	                        counters, ejection history, windowed SLOs
//	GET  /v1/canary/report  the canary diff report and promotion gates
//	POST /v1/canary/promote reload primaries onto the candidate (gated)
//	GET  /debug/traces      tail-sampled traces; ?id= merges the backends'
//	                        halves into one multi-hop tree
//	GET  /healthz           200 while any primary backend is admissible
//	GET  /metrics           router-level counters and latency histograms
//
// Example:
//
//	outagerouter -addr :8070 -backends http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	  -canary-backends http://10.0.0.9:8080 -candidate <fingerprint> -canary-percent 25
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pmuoutage/internal/obs"
	"pmuoutage/internal/router"
)

func main() {
	var (
		addr       = flag.String("addr", ":8070", "listen address")
		backends   = flag.String("backends", "", "comma-separated primary backend base URLs (required)")
		canaries   = flag.String("canary-backends", "", "comma-separated canary backend base URLs (empty disables canary)")
		candidate  = flag.String("candidate", "", "candidate model fingerprint under canary evaluation")
		percent    = flag.Int("canary-percent", 0, "percent of detect traffic mirrored to the canary fleet (0-100)")
		minPairs   = flag.Int("min-pairs", 20, "promotion gate: minimum shadow pairs")
		tolerance  = flag.Float64("tolerance", 0, "promotion gate: tolerated per-scenario IA/FA regression")
		maxInFl    = flag.Int("max-inflight", 0, "concurrent proxied requests per backend (0 = 256)")
		probeEvery = flag.Duration("probe-every", 250*time.Millisecond, "backend health-probe period")
		fleetWin   = flag.Duration("fleet-window", time.Minute, "rolling window the /v1/fleet SLO signals cover")
		traceCap   = flag.Int("trace-capacity", 256, "retained-trace ring size for GET /debug/traces (0 disables tracing)")
		traceSlow  = flag.Duration("trace-slow", 100*time.Millisecond, "tail sampling keeps traces at least this slow (negative disables the latency rule)")
		traceEvery = flag.Int("trace-sample", 0, "tail sampling also keeps every Nth trace regardless of latency (0 disables)")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger := obs.NewTextLogger(os.Stderr, level)

	cfg := router.Config{
		Backends:       splitList(*backends),
		CanaryBackends: splitList(*canaries),
		Candidate:      *candidate,
		CanaryPercent:  *percent,
		MinPairs:       *minPairs,
		Tolerance:      *tolerance,
		MaxInFlight:    *maxInFl,
		ProbeEvery:     *probeEvery,
		FleetWindow:    *fleetWin,
		Logger:         logger,
	}
	if *traceCap > 0 {
		cfg.Tracer = obs.NewTracer(obs.TracerConfig{
			Capacity:      *traceCap,
			SlowThreshold: *traceSlow,
			SampleEvery:   *traceEvery,
		})
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rt, err := router.New(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Routes()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("outagerouter listening", "addr", *addr,
		"backends", len(cfg.Backends), "canary_backends", len(cfg.CanaryBackends))

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	sdCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sdCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
}

// splitList parses a comma-separated flag into its non-empty entries.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
