package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// httpLifecycle is the shared listen → serve → drain skeleton of the
// query server and the debug server: the listener is opened
// synchronously so bind errors surface to the caller (instead of dying
// inside a goroutine), the serve loop's terminal error is captured on
// a channel, and drain is bounded shutdown with force-close fallback.
type httpLifecycle struct {
	srv *http.Server
	ln  net.Listener
	err chan error
}

// startHTTP binds addr and starts serving srv on it in the background.
// The returned lifecycle's err channel receives the serve loop's
// terminal error (nil after a clean Shutdown/Close).
func startHTTP(srv *http.Server, addr string) (*httpLifecycle, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	l := &httpLifecycle{srv: srv, ln: ln, err: make(chan error, 1)}
	go func() {
		e := srv.Serve(ln)
		if errors.Is(e, http.ErrServerClosed) {
			e = nil
		}
		l.err <- e
	}()
	return l, nil
}

// addr reports the bound address (resolves ":0" to the chosen port).
func (l *httpLifecycle) addr() string { return l.ln.Addr().String() }

// drain stops accepting new connections and waits up to timeout for
// in-flight requests to finish; connections still busy after that are
// force-closed (0 = wait indefinitely).
func (l *httpLifecycle) drain(timeout time.Duration) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	err := l.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		_ = l.srv.Close()
		return fmt.Errorf("server: drain timeout after %v, in-flight connections force-closed", timeout)
	}
	if err != nil {
		return err
	}
	// Surface a serve-loop failure that predated the drain, if any.
	select {
	case e := <-l.err:
		return e
	default:
		return nil
	}
}
