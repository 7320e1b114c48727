package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pmuoutage"
	"pmuoutage/api"
	"pmuoutage/internal/httpserve"
	"pmuoutage/internal/router"
	"pmuoutage/internal/service"
)

// shardName is the one shard every benchmark backend serves.
const shardName = "grid"

// loopback is one HTTP server on an ephemeral 127.0.0.1 port.
type loopback struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close stops the server and waits for its serve loop to return.
func (lb *loopback) close() {
	_ = lb.srv.Close() // Serve's return is what we wait for
	<-lb.done
}

// backend is one daemon: a service with one shard behind the real
// HTTP handler.
type backend struct {
	svc  *service.Service
	http *httpserve.Server
	lb   *loopback
}

func startBackend(ctx context.Context, m *pmuoutage.Model) (*backend, error) {
	svc, err := service.New(ctx, service.Config{
		Shards:         []service.ShardSpec{{Name: shardName, Model: m}},
		RestartBackoff: time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if _, err := svc.System(shardName); err == nil {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			svc.Close()
			return nil, fmt.Errorf("shard %s never became ready", shardName)
		}
		time.Sleep(time.Millisecond)
	}
	hs := httpserve.New(svc, 30*time.Second, nil)
	lb, err := serve(hs.Routes())
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &backend{svc: svc, http: hs, lb: lb}, nil
}

func (b *backend) close() {
	b.lb.close()
	b.svc.Close()
}

// fleetRouter is the router front-end over the backends, on its own
// loopback listener.
type fleetRouter struct {
	rt *router.Router
	lb *loopback
}

func startRouter(ctx context.Context, backends []*backend) (*fleetRouter, error) {
	var urls []string
	for _, b := range backends {
		urls = append(urls, b.lb.url)
	}
	rt, err := router.New(ctx, router.Config{Backends: urls})
	if err != nil {
		return nil, err
	}
	lb, err := serve(rt.Routes())
	if err != nil {
		rt.Close()
		return nil, err
	}
	return &fleetRouter{rt: rt, lb: lb}, nil
}

func (r *fleetRouter) close() {
	r.lb.close()
	r.rt.Close()
}

// newHTTPClient is the load generator's client: at most conns
// connections to any one host, kept alive between requests.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// post sends body and returns the status and the full response body.
func post(ctx context.Context, hc *http.Client, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// classify maps a reply onto the phase outcome: 200 is success, an
// overloaded error code is a shed request, anything else failed.
func classify(status int, body []byte, err error) outcome {
	switch {
	case err != nil:
		return outcomeFailed
	case status == http.StatusOK:
		return outcomeOK
	}
	if env, ok := api.DecodeError(body); ok && env.Code == api.CodeOverloaded {
		return outcomeShed
	}
	return outcomeFailed
}

// reload posts a patch reload to url (a backend or the router) and
// returns every backend's result: one for a backend, one per backend
// for the router's fleet broadcast.
func reload(ctx context.Context, hc *http.Client, url string, viaRouter bool, patchPath string) ([]api.ReloadResult, error) {
	body, err := json.Marshal(api.ReloadRequest{Shard: shardName, PatchPath: patchPath})
	if err != nil {
		return nil, err
	}
	status, out, err := post(ctx, hc, url+"/v1/reload", "application/json", body)
	if err != nil {
		return nil, fmt.Errorf("reload: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("reload: status %d: %s", status, out)
	}
	if !viaRouter {
		var r api.ReloadResult
		if err := json.Unmarshal(out, &r); err != nil {
			return nil, fmt.Errorf("reload: %w", err)
		}
		return []api.ReloadResult{r}, nil
	}
	var fr api.FleetReload
	if err := json.Unmarshal(out, &fr); err != nil {
		return nil, fmt.Errorf("reload: %w", err)
	}
	if fr.Failed {
		return nil, errors.New("reload: fleet reload failed: " + string(out))
	}
	var rs []api.ReloadResult
	for _, b := range fr.Results {
		rs = append(rs, b.Results...)
	}
	return rs, nil
}
