package fleettest

import (
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"pmuoutage"
	"pmuoutage/internal/service"
)

func okHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, body)
	})
}

func get(t *testing.T, url string) (string, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// TestKillFailsInFlight: a request the handler is still serving when
// the server is killed gets a transport error, not a response.
func TestKillFailsInFlight(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	s, err := Serve("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
	}))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := get(t, s.URL)
		errc <- err
	}()
	<-entered
	s.Kill()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("in-flight request succeeded across Kill")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request still pending after Kill")
	}
	s.Kill() // idempotent
}

// TestRestartOnSameAddr: after Kill frees the address, Serve on the
// same Addr comes back and answers with the new handler.
func TestRestartOnSameAddr(t *testing.T) {
	s, err := Serve("", okHandler("first"))
	if err != nil {
		t.Fatal(err)
	}
	if body, err := get(t, s.URL); err != nil || body != "first" {
		t.Fatalf("first server: %q, %v", body, err)
	}
	s.Kill()
	if _, err := get(t, s.URL); err == nil {
		t.Fatal("killed server still answers")
	}
	s2, err := Serve(s.Addr, okHandler("second"))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	if s2.Addr != s.Addr || s2.URL != s.URL {
		t.Fatalf("restart listens on %s, want %s", s2.Addr, s.Addr)
	}
	if body, err := get(t, s2.URL); err != nil || body != "second" {
		t.Fatalf("restarted server: %q, %v", body, err)
	}
}

// TestStopWaitsForServe: Stop returns only after Serve has exited, and
// reports a graceful shutdown as clean, also after a Kill.
func TestStopWaitsForServe(t *testing.T) {
	s, err := Serve("", okHandler("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := get(t, s.URL); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(context.Background()); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
	select {
	case <-s.done:
	default:
		t.Fatal("Stop returned before Serve exited")
	}
	s.Kill()
	if err := s.Stop(context.Background()); err != nil {
		t.Fatalf("stop after kill: %v", err)
	}
}

// TestWaitReady returns the live System once the shard serves, and an
// unknown shard fails at once instead of waiting out the context.
func TestWaitReady(t *testing.T) {
	m, err := pmuoutage.TrainModel(pmuoutage.Options{Case: "ieee14", TrainSteps: 8, Seed: 1, UseDC: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(context.Background(), service.Config{
		Shards: []service.ShardSpec{{Name: "east", Model: m}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sys, err := WaitReady(ctx, svc, "east")
	if err != nil {
		t.Fatal(err)
	}
	if sys.Model().Fingerprint() != m.Fingerprint() {
		t.Fatal("WaitReady returned a System serving another model")
	}
	if _, err := WaitReady(ctx, svc, "nope"); err == nil || ctx.Err() != nil {
		t.Fatalf("unknown shard: err %v, ctx %v; want an immediate error", err, ctx.Err())
	}
}
