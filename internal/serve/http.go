package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"fivegsim"
	"fivegsim/internal/obs"
)

// The HTTP surface: the campaign API plus live telemetry. Telemetry
// handlers snapshot per request — the registry under its lock, progress
// under the service lock — so the instruments stay on their atomic
// fast paths.
//
//	GET    /metrics                  Prometheus text exposition
//	GET    /metrics.json             registry snapshot (JSON array)
//	GET    /progress                 service-wide progress (Progress)
//	GET    /trace                    Chrome trace (with Options.Tracer)
//	GET    /debug/pprof/             runtime profiles (with Options.Pprof)
//	POST   /campaigns                submit a spec (fgserve.spec/v1)
//	GET    /campaigns                list campaign statuses
//	GET    /campaigns/{id}           status snapshot with ETA
//	GET    /campaigns/{id}/stream    replay + tail events (NDJSON; SSE
//	                                 with Accept: text/event-stream);
//	                                 saved NDJSON is what fgobs reads
//	GET    /campaigns/{id}/report    text report (unit order)
//	DELETE /campaigns/{id}           cancel via context cancellation

// errorDoc is the uniform JSON error body.
type errorDoc struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorDoc{Error: err.Error()})
}

// errorCode maps service errors to HTTP statuses: validation failures
// are the client's fault (400), capacity and drain are retryable (503),
// unknown ids are 404.
func errorCode(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrInvalidSpec),
		errors.Is(err, fivegsim.ErrInvalidConfig),
		errors.Is(err, fivegsim.ErrUnknownExperiment):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// Handler builds the service mux: the campaign API plus the telemetry
// endpoints.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WriteProm(w, s.reg)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, s.Progress())
	})
	if s.tracer != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			s.tracer.WriteChromeTrace(w)
		})
	}
	if s.opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("DELETE /campaigns/{id}", s.handleCancel)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "fgserve campaign service")
		fmt.Fprintln(w, "  POST   /campaigns                submit a campaign spec (fgserve.spec/v1)")
		fmt.Fprintln(w, "  GET    /campaigns                list campaigns")
		fmt.Fprintln(w, "  GET    /campaigns/{id}           status snapshot (ETA, unit counts)")
		fmt.Fprintln(w, "  GET    /campaigns/{id}/stream    result/progress stream (NDJSON or SSE; fgobs reads saved NDJSON)")
		fmt.Fprintln(w, "  GET    /campaigns/{id}/report    text report of completed units")
		fmt.Fprintln(w, "  DELETE /campaigns/{id}           cancel the campaign")
		fmt.Fprintln(w, "  GET    /metrics                  Prometheus text exposition")
		fmt.Fprintln(w, "  GET    /metrics.json /progress   JSON mirrors")
	})
	return mux
}

// maxSpecBytes caps a POST /campaigns body; a spec at the maxUnits
// bound encodes in well under it.
const maxSpecBytes = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	// Unknown fields are a spec-version skew; reject at the boundary
	// rather than silently dropping a knob the client thought it set.
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: malformed spec: %w", err))
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		code := errorCode(err)
		if code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Location", "/campaigns/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	text, state, err := s.report(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Fgserve-State", string(state))
	fmt.Fprint(w, text)
}

// handleStream writes the campaign's event log — replay then live tail
// — as NDJSON (one event per line), or as Server-Sent Events when the
// client asks for text/event-stream. The response ends when the
// campaign closes; a mid-run disconnect just stops the tail.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	flusher, _ := w.(http.Flusher)
	wroteHeader := false
	writeEvent := func(ev Event) error {
		if !wroteHeader {
			if sse {
				w.Header().Set("Content-Type", "text/event-stream")
				w.Header().Set("Cache-Control", "no-store")
			} else {
				w.Header().Set("Content-Type", "application/x-ndjson")
			}
			wroteHeader = true
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if sse {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
				return err
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	err := s.Stream(r.Context(), id, writeEvent)
	switch {
	case err == nil, errors.Is(err, context.Canceled):
		// Complete, or the client went away.
	case !wroteHeader:
		writeError(w, errorCode(err), err)
	}
}

// Server is a bound fgserve endpoint: the HTTP listener plus the
// service drain, both tied to the context given to Start.
type Server struct {
	// Addr is the resolved listen address (port 0 supported).
	Addr string
	done chan struct{}
	err  error
}

// DrainGrace bounds how long a stopping service waits for in-flight
// units after its context is canceled.
const DrainGrace = 15 * time.Second

// shutdownGrace bounds how long a stopping server waits for in-flight
// requests before closing their connections.
const shutdownGrace = 2 * time.Second

// Start binds addr (":0" picks a free port) and serves the service's
// Handler until ctx is canceled, then stops: the listener shuts down,
// giving in-flight requests shutdownGrace, while the service drains,
// giving in-flight units DrainGrace. A listener that fails on its own
// drains the service too. Start returns as soon as the listener is
// bound; the resolved address is Server.Addr.
func (s *Service) Start(ctx context.Context, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: s.Handler()}
	srv := &Server{Addr: ln.Addr().String(), done: make(chan struct{})}
	shut := make(chan error, 1)
	stop := context.AfterFunc(ctx, func() {
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		shut <- hs.Shutdown(sctx)
	})
	go func() {
		defer close(srv.done)
		err := hs.Serve(ln) // http.ErrServerClosed once the shutdown begins
		dctx, cancel := context.WithTimeout(context.Background(), DrainGrace)
		defer cancel()
		drainErr := s.Shutdown(dctx)
		if !stop() {
			err = <-shut // ctx fired: report how the listener shut down
		}
		if err == nil {
			err = drainErr
		}
		srv.err = err
	}()
	return srv, nil
}

// Wait blocks until both the HTTP server and the worker pool have shut
// down, returning the first error (nil on a clean drain).
func (srv *Server) Wait() error {
	<-srv.done
	return srv.err
}
