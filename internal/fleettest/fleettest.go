// Package fleettest boots the pieces of an in-process serving fleet on
// loopback for the smoke, soak and benchmark harnesses: a Server that
// can be stopped gracefully, killed abruptly and restarted on the
// address it freed, and a readiness wait for one service shard.
package fleettest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"pmuoutage"
	"pmuoutage/internal/service"
)

// Server serves one handler on a loopback listener.
type Server struct {
	// Addr is the host:port the server listens on; pass it back to
	// Serve to restart on the same address after Kill.
	Addr string
	// URL is "http://" + Addr, the base URL clients dial.
	URL string

	srv  *http.Server
	done chan struct{}
	err  error // Serve's return value, set before done closes
}

// Serve serves h on addr, or on an ephemeral loopback port when addr
// is empty. A given address is retried for up to two seconds while the
// OS releases it from the server that held it before.
func Serve(addr string, h http.Handler) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for i := 0; i < 40; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return nil, err
	}
	s := &Server{
		Addr: ln.Addr().String(),
		URL:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	//gridlint:ignore ctxflow server lifetime is bound by Stop and Kill, which join the goroutine
	go func() {
		s.err = s.srv.Serve(ln)
		close(s.done)
	}()
	return s, nil
}

// Stop shuts the server down gracefully: it stops accepting, lets
// in-flight requests finish until ctx ends (then closes them), and
// returns once Serve has exited. It returns nil only for a clean
// shutdown. Stop after Kill is a no-op.
func (s *Server) Stop(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		_ = s.srv.Close()
	}
	<-s.done
	if !errors.Is(s.err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", s.err)
	}
	return err
}

// Kill closes the listener and every open connection at once, so
// in-flight requests see a transport error, and returns once Serve has
// exited. It is safe to call more than once.
func (s *Server) Kill() {
	_ = s.srv.Close() // only a listener close error, which a kill ignores
	<-s.done
}

// WaitReady polls svc until the named shard serves and returns its
// live System. A non-retryable shard error (unknown shard, failed
// build) returns at once; otherwise it waits until ctx ends.
func WaitReady(ctx context.Context, svc *service.Service, shard string) (*pmuoutage.System, error) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		sys, err := svc.System(shard)
		if err == nil || !service.Retryable(err) {
			return sys, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("shard %s never became ready: %w", shard, ctx.Err())
		case <-tick.C:
		}
	}
}
