// Package httpserve adapts the service layer to HTTP. Control-plane
// calls (detect, reload, shards, stats, health) speak JSON; streaming
// ingest speaks either JSON or the compact binary frame codec from
// internal/wire — POST /v1/ingest with Content-Type
// application/x-pmu-frame and ?shard= carries one encoded frame and
// skips the JSON hop entirely. Both transports land on the same
// service.Ingest path, so detection events are byte-identical across
// them (pinned by TestBinaryIngestMatchesJSON).
//
// The package exists so cmd/outaged, cmd/outagesoak, the repository
// benchmark, and tests share one handler implementation instead of
// re-wiring routes per binary.
package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/obs"
	"pmuoutage/internal/registry"
	"pmuoutage/internal/service"
	"pmuoutage/internal/wire"
)

// FrameContentType marks a POST /v1/ingest body as one binary wire
// frame (internal/wire layout); the shard is named by the ?shard=
// query parameter.
const FrameContentType = "application/x-pmu-frame"

// HTTP-layer metric names, registered on the service's registry so one
// /metrics page carries both views. Package-level snake_case consts
// with one registration site each (gridlint metricname).
const (
	metricHTTPRequests  = "pmu_http_requests_total"
	metricHTTPErrors    = "pmu_http_errors_total"
	metricHTTPSeconds   = "pmu_http_seconds"
	metricFrameDecode   = "pmu_frame_decode_seconds"
	metricTracesKept    = "pmu_traces_kept_total"
	metricTracesDropped = "pmu_traces_dropped_total"

	labelPath = "path"

	// Span stage labels owned by the HTTP layer: the root span covering
	// the whole exchange, and the response-encode child the detect
	// handler records (the shard pipeline owns queue/coalesce/detect).
	stageHTTP   = "http"
	stageEncode = "encode"
)

// routePaths are the daemon's endpoints; per-route HTTP series are
// pre-registered for exactly these, and requests to anything else
// record nothing (nil cells are no-ops).
var routePaths = []string{
	"/v1/detect", "/v1/ingest", "/v1/reload",
	"/v1/shards", "/v1/stats", "/healthz", "/metrics",
	"/debug/traces",
}

// ModelFetcher resolves a model artifact by content fingerprint — the
// seam the registry client plugs into so POST /v1/reload can name
// artifacts by fingerprint instead of daemon-local file paths.
// Implementations must verify the decoded model's fingerprint matches
// the requested one.
type ModelFetcher interface {
	Model(ctx context.Context, fingerprint string) (*pmuoutage.Model, error)
}

// Server adapts the service layer to HTTP.
type Server struct {
	svc     *service.Service
	timeout time.Duration // per-request deadline applied to detect/ingest
	logger  *slog.Logger  // nil disables access logs
	models  ModelFetcher  // nil: reload-by-fingerprint is rejected

	httpReqs    map[string]*obs.Counter
	httpErrs    map[string]*obs.Counter
	httpLat     map[string]*obs.Histogram
	frameDecode *obs.Histogram
}

// New builds a server over svc. timeout bounds each detect/ingest call;
// a nil logger disables access logs.
func New(svc *service.Service, timeout time.Duration, logger *slog.Logger) *Server {
	s := &Server{
		svc:      svc,
		timeout:  timeout,
		httpReqs: map[string]*obs.Counter{},
		httpErrs: map[string]*obs.Counter{},
		httpLat:  map[string]*obs.Histogram{},
	}
	if logger != nil {
		s.logger = logger.With(slog.String(obs.AttrComponent, "http"))
	}
	reg := svc.Metrics()
	for _, p := range routePaths {
		s.httpReqs[p] = reg.Counter(metricHTTPRequests, "HTTP requests served", labelPath, p)
		s.httpErrs[p] = reg.Counter(metricHTTPErrors, "HTTP requests answered with status >= 400", labelPath, p)
		s.httpLat[p] = reg.Histogram(metricHTTPSeconds, "request latency, ingress to last byte", labelPath, p)
	}
	s.frameDecode = reg.Histogram(metricFrameDecode, "binary ingest frame decode latency")
	if tr := svc.Tracer(); tr != nil {
		reg.AttachCounter(metricTracesKept, "traces retained by tail sampling", tr.KeptCounter())
		reg.AttachCounter(metricTracesDropped, "traces dropped by tail sampling", tr.DroppedCounter())
	}
	return s
}

// Routes builds the daemon's mux, wrapped in the telemetry middleware.
func (s *Server) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/detect", s.handleDetect)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("GET /v1/shards", s.handleShards)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.svc.Metrics())
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	return s.instrument(mux)
}

// instrument is the telemetry middleware: it resolves the request's
// trace ID (a well-formed caller ID is kept so traces span services,
// one is minted otherwise; see obs.IncomingTrace), carries it on the
// context through every layer, echoes it on the response — success or
// error — and records the per-route counter, error counter, latency
// histogram, and one structured access line.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, id := obs.IncomingTrace(r.Context(), r.Header)
		w.Header().Set(obs.TraceHeader, id)
		ctx, span := s.svc.Tracer().StartSpan(ctx, stageHTTP)
		if span != nil {
			span.SetAttr(labelPath, r.URL.Path)
			w.Header().Set(obs.SpanHeader, span.ID())
		}
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		if sw.status >= 500 {
			span.SetErrorString(http.StatusText(sw.status))
		}
		span.End()
		elapsed := time.Since(start)
		path := r.URL.Path
		s.httpReqs[path].Inc()
		s.httpLat[path].Observe(elapsed)
		if sw.status >= 400 {
			s.httpErrs[path].Inc()
		}
		if lg := s.logger; lg != nil && lg.Enabled(r.Context(), slog.LevelInfo) {
			lg.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String(obs.AttrTraceID, id),
				slog.String("method", r.Method),
				slog.String("path", path),
				slog.Int("status", sw.status),
				slog.Duration("elapsed", elapsed))
		}
	})
}

// statusWriter captures the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// DebugMux serves the opt-in -debug-addr endpoints: pprof profiles and
// expvar counters on an explicit mux (never the default one, so the
// serving port exposes nothing extra).
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// The wire types are shared with every other transport participant
// through the public api package — the aliases below keep this
// package's identifiers working while guaranteeing there is exactly one
// definition of each body.
type (
	// DetectRequest is the body of POST /v1/detect.
	DetectRequest = api.DetectRequest
	// DetectResponse is its reply: one report per sample, in order.
	DetectResponse = api.DetectResponse
	// IngestRequest is the JSON body of POST /v1/ingest.
	IngestRequest = api.IngestRequest
	// IngestResponse carries the confirmed event, if the sample
	// triggered one. Binary-mode ingest answers with the same shape.
	IngestResponse = api.IngestResponse
	// ReloadRequest is the body of POST /v1/reload.
	ReloadRequest = api.ReloadRequest
	// ReloadResponse reports the shard's new incarnation after the swap.
	ReloadResponse = api.ReloadResult
	// ErrorResponse is the uniform error body, carrying the stable
	// machine-readable code clients branch on.
	ErrorResponse = api.ErrorEnvelope
)

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var req DetectRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	reports, err := s.svc.DetectBatch(ctx, req.Shard, req.Samples)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	encStart := time.Now()
	writeJSON(w, http.StatusOK, DetectResponse{Shard: req.Shard, Reports: reports})
	encEnd := time.Now()
	s.svc.Counters(req.Shard).StageSeconds(service.StageEncode).Observe(encEnd.Sub(encStart))
	s.svc.Tracer().RecordSpan(r.Context(), stageEncode, encStart, encEnd, nil)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.Header.Get("Content-Type"), FrameContentType) {
		s.handleIngestFrame(w, r)
		return
	}
	var req IngestRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ev, err := s.svc.Ingest(ctx, req.Shard, req.Sample)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.svc.Counters(req.Shard).Frames(service.IngestJSON).Inc()
	writeJSON(w, http.StatusOK, IngestResponse{Shard: req.Shard, Event: ev})
}

// handleIngestFrame is the binary ingest mode: the body is one encoded
// wire frame, the shard comes from ?shard=. Decode reuses pooled
// buffers and frames; the sample is scored synchronously on the same
// monitor path as JSON ingest.
func (s *Server) handleIngestFrame(w http.ResponseWriter, r *http.Request) {
	shard := r.URL.Query().Get("shard")
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, int64(wire.MaxFrameBytes)+1)); err != nil {
		s.writeError(w, r, fmt.Errorf("%w: reading frame: %v", ErrBadRequest, err))
		return
	}
	f := wire.GetFrame()
	defer wire.PutFrame(f)
	decStart := time.Now()
	_, err := wire.DecodeFrame(buf.B, f)
	s.frameDecode.Observe(time.Since(decStart))
	if err != nil {
		s.writeError(w, r, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ev, err := s.svc.Ingest(ctx, shard, frameSample(f))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.svc.Counters(shard).Frames(service.IngestBinary).Inc()
	writeJSON(w, http.StatusOK, IngestResponse{Shard: shard, Event: ev})
}

// frameSample converts a decoded frame into a facade sample. The slices
// are shared with the frame — safe because Ingest is synchronous and
// the detector copies the channels it keeps.
func frameSample(f *wire.Frame) pmuoutage.Sample {
	s := pmuoutage.Sample{Vm: f.Vm, Va: f.Va}
	if f.Flags&wire.FlagMissing != 0 {
		for i := 0; i < f.N(); i++ {
			if f.IsMissing(i) {
				s.Missing = append(s.Missing, i)
			}
		}
	}
	return s
}

// SetModelSource wires a registry-backed artifact resolver into the
// reload path. Call before Routes; a nil fetcher (the default) makes
// reload-by-fingerprint answer a config error.
func (s *Server) SetModelSource(f ModelFetcher) { s.models = f }

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if req.PatchPath != "" {
		if req.Path != "" || req.Fingerprint != "" {
			s.writeError(w, r, fmt.Errorf("%w: reload names a patch alongside a model source; pick one", ErrBadRequest))
			return
		}
		p, err := LoadPatch(req.PatchPath)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		if err := s.svc.ApplyPatch(ctx, req.Shard, p); err != nil {
			s.writeError(w, r, err)
			return
		}
	} else {
		m, err := s.resolveModel(ctx, req)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		if err := s.svc.Reload(ctx, req.Shard, m); err != nil {
			s.writeError(w, r, err)
			return
		}
	}
	for _, st := range s.svc.Shards() {
		if st.Name == req.Shard {
			writeJSON(w, http.StatusOK, ReloadResponse{Shard: st.Name, Generation: st.Generation, Model: st.Model})
			return
		}
	}
	s.writeError(w, r, fmt.Errorf("%w: %q vanished after reload", service.ErrUnknownShard, req.Shard))
}

// resolveModel turns a reload request into the model to swap in: nil
// (retrain from the shard's options), a file artifact, or a registry
// artifact pulled by fingerprint.
func (s *Server) resolveModel(ctx context.Context, req ReloadRequest) (*pmuoutage.Model, error) {
	switch {
	case req.Path != "" && req.Fingerprint != "":
		return nil, fmt.Errorf("%w: reload names both path and fingerprint; pick one", ErrBadRequest)
	case req.Path != "":
		return LoadModel(req.Path)
	case req.Fingerprint != "":
		if s.models == nil {
			return nil, fmt.Errorf("%w: reload by fingerprint needs a registry (-registry)", service.ErrConfig)
		}
		return s.models.Model(ctx, req.Fingerprint)
	default:
		return nil, nil
	}
}

// LoadModel reads one model artifact from disk.
func LoadModel(path string) (*pmuoutage.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	defer func() { _ = f.Close() }()
	return pmuoutage.DecodeModel(f)
}

// LoadPatch reads one model patch artifact from disk.
func LoadPatch(path string) (*pmuoutage.Patch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	defer func() { _ = f.Close() }()
	return pmuoutage.DecodePatch(f)
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Shards())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.svc.Ready() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no shard ready"})
}

// requestCtx applies the server's per-request deadline on top of the
// connection context.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// ErrBadRequest wraps malformed request bodies (unparseable JSON,
// corrupt frames) so statusOf maps them to 400 without conflating them
// with facade sample validation.
var ErrBadRequest = errors.New("bad request")

func decodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// CodeOf maps the typed error taxonomy onto the stable wire codes the
// error envelope carries — the single classification both the HTTP
// status (via Code.HTTPStatus) and the clients' branch decisions derive
// from.
func CodeOf(err error) api.Code {
	switch {
	case errors.Is(err, service.ErrUnknownShard):
		return api.CodeUnknownShard
	case errors.Is(err, pmuoutage.ErrBadSample):
		return api.CodeBadSample
	case errors.Is(err, pmuoutage.ErrBadLine):
		return api.CodeBadLine
	case errors.Is(err, pmuoutage.ErrUnknownCase):
		return api.CodeUnknownCase
	case errors.Is(err, pmuoutage.ErrModelVersion):
		return api.CodeModelVersion
	case errors.Is(err, pmuoutage.ErrPatchBase):
		return api.CodePatchBase
	case errors.Is(err, pmuoutage.ErrBadPatch), errors.Is(err, pmuoutage.ErrPatchVersion):
		return api.CodeBadPatch
	case errors.Is(err, pmuoutage.ErrBadModel):
		return api.CodeBadModel
	case errors.Is(err, registry.ErrUnknownModel):
		return api.CodeUnknownModel
	case errors.Is(err, registry.ErrBadArtifact), errors.Is(err, registry.ErrMismatch):
		return api.CodeBadModel
	case errors.Is(err, registry.ErrFetch):
		return api.CodeUnavailable
	case errors.Is(err, service.ErrConfig):
		return api.CodeConfig
	case errors.Is(err, ErrBadRequest):
		return api.CodeBadRequest
	case errors.Is(err, service.ErrOverloaded):
		return api.CodeOverloaded
	case errors.Is(err, service.ErrUnavailable):
		return api.CodeUnavailable
	case errors.Is(err, service.ErrClosed):
		return api.CodeClosed
	case errors.Is(err, context.DeadlineExceeded):
		return api.CodeDeadline
	default:
		return api.CodeInternal
	}
}

// statusOf maps the typed error taxonomy onto HTTP statuses.
func statusOf(err error) int {
	return CodeOf(err).HTTPStatus()
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	retry := service.Retryable(err)
	if retry {
		w.Header().Set("Retry-After", "1")
	}
	if lg := s.logger; lg != nil {
		lg.LogAttrs(r.Context(), slog.LevelWarn, "request failed",
			slog.String(obs.AttrTraceID, obs.TraceID(r.Context())),
			slog.String("path", r.URL.Path),
			slog.Bool("retryable", retry),
			slog.String("cause", err.Error()))
	}
	code := CodeOf(err)
	writeJSON(w, code.HTTPStatus(), ErrorResponse{Code: code, Error: err.Error(), Retryable: retry, TraceID: obs.TraceID(r.Context())})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The response status is already committed; an encode error here
	// only means the client went away.
	_ = json.NewEncoder(w).Encode(v)
}

// CompareReports asserts the served reports are identical to the
// library's, through the same JSON encoding the wire uses.
func CompareReports(got, want []*pmuoutage.Report) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("served reports differ from direct DetectBatch:\n got %s\nwant %s", g, w)
	}
	return nil
}
