package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pmuoutage/api"
)

// TestCodeDrivesRetry: the envelope's code — not the HTTP status —
// decides retryability when present. A 503 carrying code "closed"
// (terminal) must fail immediately; a 503 with code "unavailable"
// retries.
func TestCodeDrivesRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusServiceUnavailable,
			api.ErrorEnvelope{Code: api.CodeClosed, Error: "shutting down"})
	}))
	defer ts.Close()

	_, err := testClient(t, ts).Detect(context.Background(), "east", nil)
	if !errors.Is(err, ErrRequest) {
		t.Fatalf("got %v, want terminal ErrRequest", err)
	}
	var se *ServerError
	if !errors.As(err, &se) || se.Code != api.CodeClosed {
		t.Fatalf("ServerError.Code = %v, want %q", se, api.CodeClosed)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1 (code closed is terminal)", n)
	}
}

// TestServerErrorExposesCode: terminal coded responses surface the code
// through errors.As for machine branching.
func TestServerErrorExposesCode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound,
			api.ErrorEnvelope{Code: api.CodeUnknownShard, Error: "unknown shard \"west\""})
	}))
	defer ts.Close()

	_, err := testClient(t, ts).Detect(context.Background(), "west", nil)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("not a ServerError: %v", err)
	}
	if se.Code != api.CodeUnknownShard || se.Status != http.StatusNotFound {
		t.Fatalf("ServerError = %+v", se)
	}
}

// TestShardsAndStatsTyped: the typed GET helpers decode the wire
// payloads the daemon serves.
func TestShardsAndStatsTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/shards":
			writeJSON(w, http.StatusOK, []api.ShardStatus{
				{Name: "east", State: "serving", Model: "abc", Generation: 2, QueueDepth: 1},
			})
		case "/v1/stats":
			writeJSON(w, http.StatusOK, map[string]api.ShardSnapshot{
				"east": {Requests: 7, Shed: 1},
			})
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
	}))
	defer ts.Close()

	c := testClient(t, ts)
	shards, err := c.Shards(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0].Name != "east" || shards[0].State != "serving" || shards[0].Generation != 2 {
		t.Fatalf("shards = %+v", shards)
	}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats["east"].Requests != 7 || stats["east"].Shed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestHealthNoRetry: Health reports the current truth in one probe —
// a 503 comes back immediately as the typed error, no retries.
func TestHealthNoRetry(t *testing.T) {
	var calls atomic.Int64
	healthy := atomic.Bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if healthy.Load() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable,
			api.ErrorEnvelope{Code: api.CodeUnavailable, Error: "no shard serving"})
	}))
	defer ts.Close()

	c := testClient(t, ts)
	err := c.Health(context.Background())
	var se *ServerError
	if err == nil || !errors.As(err, &se) || se.Code != api.CodeUnavailable {
		t.Fatalf("unhealthy probe: got %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1 (health never retries)", n)
	}
	healthy.Store(true)
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPostRawReturnsEveryResponse: raw mode hands back HTTP failures as
// responses (for proxy relay / failover), retrying only transport
// errors.
func TestPostRawReturnsEveryResponse(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type = %q", ct)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"code":"overloaded","error":"shed","retryable":true}`))
	}))
	defer ts.Close()

	raw, err := testClient(t, ts).PostRaw(context.Background(), "/v1/detect", "application/json", []byte(`{}`))
	if err != nil {
		t.Fatalf("raw mode must not error on HTTP failures: %v", err)
	}
	if raw.Status != http.StatusTooManyRequests || raw.RetryAfter != "7" || raw.ContentType != "application/json" {
		t.Fatalf("raw = %+v", raw)
	}
	if !raw.Retryable() {
		t.Fatal("overloaded response must classify retryable")
	}
	var se *ServerError
	if err := raw.Decode(&struct{}{}); !errors.As(err, &se) || se.Code != api.CodeOverloaded {
		t.Fatalf("Decode of a 429 = %v, want the typed overloaded ServerError", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1 (no HTTP-level retries in raw mode)", n)
	}
}

// TestRawTransportErrorExhausts: with the backend gone, raw mode
// retries the transport error up to the budget then wraps ErrExhausted.
func TestRawTransportErrorExhausts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // nothing listening

	c, err := New(Config{BaseURL: ts.URL, MaxRetries: 1, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PostRaw(context.Background(), "/v1/detect", "application/json", nil); !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
}
