package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Live telemetry over HTTP: Handler exposes a running registry as a
// Prometheus scrape target plus JSON mirrors, so a campaign can be
// watched while it executes instead of only through its end-of-run
// manifests. Handlers snapshot under the registry lock per request —
// the instruments themselves stay on their atomic fast paths.

// ServeOptions selects what a telemetry server exposes.
type ServeOptions struct {
	// Registry backs /metrics (Prometheus text format) and
	// /metrics.json (the Snapshot JSON array). May be nil (both
	// endpoints then serve empty documents).
	Registry *Registry
	// Progress, when non-nil, backs /progress (a ProgressSnapshot as
	// JSON).
	Progress *ProgressTracker
	// Tracer, when non-nil, backs /trace (the current ring as a
	// Chrome-trace JSON, loadable in Perfetto).
	Tracer *Tracer
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// Handler builds the telemetry mux for the given options.
func Handler(opts ServeOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w, opts.Registry)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(opts.Registry.Snapshot())
	})
	if opts.Progress != nil {
		mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(opts.Progress.Snapshot())
		})
	}
	if opts.Tracer != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			opts.Tracer.WriteChromeTrace(w)
		})
	}
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "fivegsim live telemetry")
		fmt.Fprintln(w, "  /metrics       Prometheus text exposition")
		fmt.Fprintln(w, "  /metrics.json  registry snapshot (JSON)")
		if opts.Progress != nil {
			fmt.Fprintln(w, "  /progress      campaign progress (JSON)")
		}
		if opts.Tracer != nil {
			fmt.Fprintln(w, "  /trace         Chrome trace of the run so far")
		}
		if opts.Pprof {
			fmt.Fprintln(w, "  /debug/pprof/  runtime profiles")
		}
	})
	return mux
}

// Server is a running HTTP endpoint. It shuts down when the context
// passed to ServeHandler is canceled; Wait blocks until shutdown has
// completed and reports the terminal serve error, if any.
type Server struct {
	// Addr is the bound listen address ("127.0.0.1:43211"), resolved
	// even when ServeHandler was asked for port 0.
	Addr string
	done chan struct{}
	err  error
}

// shutdownGrace bounds how long an exiting server waits for in-flight
// scrapes before closing their connections.
const shutdownGrace = 2 * time.Second

// ServeHandler binds addr (":0" picks a free port) and serves h until
// ctx is canceled, then drains in-flight requests for a bounded grace.
// It returns as soon as the listener is bound; the resolved address is
// Server.Addr. internal/serve mounts its campaign API on top of
// Handler's endpoints and serves it through this.
func ServeHandler(ctx context.Context, addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: h}
	s := &Server{Addr: ln.Addr().String(), done: make(chan struct{})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	go func() {
		defer close(s.done)
		select {
		case err := <-serveErr:
			// The listener died on its own (not a shutdown).
			s.err = err
			return
		case <-ctx.Done():
		}
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			s.err = err
		}
		<-serveErr // always http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// Wait blocks until the server has shut down (its ServeHandler context
// was canceled, or the listener failed) and returns the terminal error, nil
// on a clean shutdown.
func (s *Server) Wait() error {
	<-s.done
	return s.err
}
