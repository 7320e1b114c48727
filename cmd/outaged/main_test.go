package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/client"
	"pmuoutage/internal/fleettest"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/service"
)

// newTestServer builds a two-shard service behind httptest.
func newTestServer(t *testing.T) (*service.Service, *httptest.Server) {
	t.Helper()
	cfg, err := buildConfig("east=ieee14,west=ieee14", 12, 3, true, 2, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RestartBackoff = time.Millisecond
	svc, err := service.New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(httpserve.New(svc, 30*time.Second, nil).Routes())
	t.Cleanup(ts.Close)
	return svc, ts
}

// waitReady waits until the shard serves or a minute passes.
func waitReady(t *testing.T, svc *service.Service, name string) *pmuoutage.System {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sys, err := fleettest.WaitReady(ctx, svc, name)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// post sends body as JSON and returns the response, whatever its status.
func post(t *testing.T, ts *httptest.Server, path string, body any) *client.RawResponse {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.New(client.Config{BaseURL: ts.URL, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cl.PostRaw(context.Background(), path, "application/json", b)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDetectEndpointMatchesDirect: a served detect response is
// byte-identical (as JSON) to System.DetectBatch on the same samples.
func TestDetectEndpointMatchesDirect(t *testing.T) {
	svc, ts := newTestServer(t)
	sys := waitReady(t, svc, "east")
	line := sys.ValidLines()[0]
	samples, err := sys.SimulateOutage([]int{line}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.DetectBatch(samples)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := client.New(client.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Detect(context.Background(), "east", samples)
	if err != nil {
		t.Fatal(err)
	}
	if err := httpserve.CompareReports(got, want); err != nil {
		t.Fatal(err)
	}
	if !got[0].Outage {
		t.Fatal("served report missed the simulated outage")
	}
}

// TestErrorMapping pins the error taxonomy → HTTP status contract.
func TestErrorMapping(t *testing.T) {
	svc, ts := newTestServer(t)
	sys := waitReady(t, svc, "east")
	waitReady(t, svc, "west")
	good, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, 1)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("unknown shard 404", func(t *testing.T) {
		raw := post(t, ts, "/v1/detect", httpserve.DetectRequest{Shard: "nope", Samples: good})
		if raw.Status != http.StatusNotFound {
			t.Fatalf("status = %d", raw.Status)
		}
		var e httpserve.ErrorResponse
		if err := json.Unmarshal(raw.Body, &e); err != nil {
			t.Fatal(err)
		}
		if e.Retryable || !strings.Contains(e.Error, "unknown shard") {
			t.Fatalf("error body = %+v", e)
		}
	})
	t.Run("bad sample 400", func(t *testing.T) {
		bad := []pmuoutage.Sample{{Vm: []float64{1}, Va: []float64{0}}}
		raw := post(t, ts, "/v1/detect", httpserve.DetectRequest{Shard: "east", Samples: bad})
		if raw.Status != http.StatusBadRequest {
			t.Fatalf("status = %d", raw.Status)
		}
	})
	t.Run("malformed body 400", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})
	t.Run("killed shard 503 with Retry-After, sibling keeps serving", func(t *testing.T) {
		if err := svc.Kill("west"); err != nil {
			t.Fatal(err)
		}
		raw := post(t, ts, "/v1/detect", httpserve.DetectRequest{Shard: "west", Samples: good})
		if raw.Status != http.StatusServiceUnavailable {
			t.Fatalf("killed shard status = %d", raw.Status)
		}
		if raw.RetryAfter == "" {
			t.Fatal("retryable 503 without Retry-After header")
		}
		var e httpserve.ErrorResponse
		if err := json.Unmarshal(raw.Body, &e); err != nil {
			t.Fatal(err)
		}
		if !e.Retryable {
			t.Fatalf("error body = %+v", e)
		}
		raw2 := post(t, ts, "/v1/detect", httpserve.DetectRequest{Shard: "east", Samples: good})
		if raw2.Status != http.StatusOK {
			t.Fatalf("surviving shard status = %d", raw2.Status)
		}
	})
}

// TestIngestShardsStatsHealth covers the remaining endpoints.
func TestIngestShardsStatsHealth(t *testing.T) {
	svc, ts := newTestServer(t)
	sys := waitReady(t, svc, "east")
	waitReady(t, svc, "west")
	samples, err := sys.SimulateOutage([]int{sys.ValidLines()[0]}, 3)
	if err != nil {
		t.Fatal(err)
	}

	var confirmed *pmuoutage.Event
	for _, smp := range samples {
		raw := post(t, ts, "/v1/ingest", httpserve.IngestRequest{Shard: "east", Sample: smp})
		if raw.Status != http.StatusOK {
			t.Fatalf("ingest status = %d", raw.Status)
		}
		var out httpserve.IngestResponse
		if err := json.Unmarshal(raw.Body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Event != nil {
			confirmed = out.Event
			break
		}
	}
	if confirmed == nil {
		t.Fatal("persistent outage never confirmed over /v1/ingest")
	}

	resp, err := http.Get(ts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	var shards []service.ShardStatus
	err = json.NewDecoder(resp.Body).Decode(&shards)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || shards[0].Name != "east" || shards[0].State != "ready" {
		t.Fatalf("shards = %+v", shards)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]service.ShardSnapshot
	err = json.NewDecoder(resp.Body).Decode(&stats)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats["east"].Ingests == 0 {
		t.Fatalf("stats = %+v", stats)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestReloadEndpoint exercises POST /v1/reload over real HTTP: load an
// artifact written by the facade codec from disk, swap a serving shard
// onto it, and verify the daemon then answers with exactly that model's
// reports. Error paths (missing file, unknown shard) map to 400/404.
func TestReloadEndpoint(t *testing.T) {
	svc, ts := newTestServer(t)
	waitReady(t, svc, "east")
	cl, err := client.New(client.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}

	// Train a different-seed model and save it the way outagetrain does.
	m, err := pmuoutage.TrainModel(pmuoutage.Options{Case: "ieee14", TrainSteps: 12, Seed: 42, UseDC: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "east.model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := cl.Reload(context.Background(), "east", path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != m.Fingerprint() {
		t.Fatalf("reload serves %s, want %s", res.Model, m.Fingerprint())
	}
	if res.Generation < 2 {
		t.Fatalf("generation = %d after reload", res.Generation)
	}

	ref, err := pmuoutage.NewSystemFromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := ref.SimulateOutage([]int{ref.ValidLines()[0]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.DetectBatch(samples)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Detect(context.Background(), "east", samples)
	if err != nil {
		t.Fatal(err)
	}
	if err := httpserve.CompareReports(got, want); err != nil {
		t.Fatal(err)
	}

	t.Run("missing artifact 400", func(t *testing.T) {
		raw := post(t, ts, "/v1/reload", httpserve.ReloadRequest{Shard: "east", Path: filepath.Join(t.TempDir(), "nope.json")})
		if raw.Status != http.StatusBadRequest {
			t.Fatalf("status = %d", raw.Status)
		}
	})
	t.Run("corrupt artifact 400", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(bad, []byte("not a model"), 0o600); err != nil {
			t.Fatal(err)
		}
		raw := post(t, ts, "/v1/reload", httpserve.ReloadRequest{Shard: "east", Path: bad})
		if raw.Status != http.StatusBadRequest {
			t.Fatalf("status = %d", raw.Status)
		}
	})
	t.Run("unknown shard 404", func(t *testing.T) {
		raw := post(t, ts, "/v1/reload", httpserve.ReloadRequest{Shard: "nope"})
		if raw.Status != http.StatusNotFound {
			t.Fatalf("status = %d", raw.Status)
		}
	})
}

func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig("east=ieee14, west=ieee30 ,bare", 20, 5, true, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Shards) != 3 {
		t.Fatalf("shards = %+v", cfg.Shards)
	}
	if cfg.Shards[1].Name != "west" || cfg.Shards[1].Opts.Case != "ieee30" {
		t.Fatalf("shard 1 = %+v", cfg.Shards[1])
	}
	if cfg.Shards[2].Name != "bare" || cfg.Shards[2].Opts.Case != "" {
		t.Fatalf("bare shard = %+v", cfg.Shards[2])
	}
	if cfg.Shards[0].Opts.Seed != 5 || cfg.Shards[1].Opts.Seed != 6 {
		t.Fatal("per-shard seed offset not applied")
	}
	if _, err := buildConfig(" , ", 0, 1, false, 0, 0, 0, 0); err == nil {
		t.Fatal("empty shard list accepted")
	}
}

// TestServeSmoke runs the -smoke self-test end to end: real listener,
// real HTTP round trip, graceful shutdown.
func TestServeSmoke(t *testing.T) {
	if err := runSmoke("ieee14", 12); err != nil {
		t.Fatal(err)
	}
}
