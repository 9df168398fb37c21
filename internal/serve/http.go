package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"fivegsim"
	"fivegsim/internal/obs"
)

// The HTTP surface. Telemetry endpoints (/metrics, /metrics.json,
// /progress, /trace, /debug/pprof) are the shared obs.Handler mux,
// with the campaign API mounted alongside:
//
//	POST   /campaigns                submit a spec (fgserve.spec/v1)
//	GET    /campaigns                list campaign statuses
//	GET    /campaigns/{id}           status snapshot with ETA
//	GET    /campaigns/{id}/stream    replay + tail events (NDJSON; SSE
//	                                 with Accept: text/event-stream)
//	GET    /campaigns/{id}/report    text report (unit order)
//	GET    /campaigns/{id}/manifest  run-manifest artifact (JSON array)
//	DELETE /campaigns/{id}           cancel via context cancellation

// errorDoc is the uniform JSON error body.
type errorDoc struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorDoc{Error: err.Error()})
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

// Handler builds the service mux: the campaign API plus the shared
// telemetry handler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	tele := obs.Handler(obs.ServeOptions{
		Registry: s.reg, Progress: s.tracker, Tracer: s.tracer, Pprof: s.opts.Pprof,
	})
	mux.Handle("/metrics", tele)
	mux.Handle("/metrics.json", tele)
	mux.Handle("/progress", tele)
	if s.tracer != nil {
		mux.Handle("/trace", tele)
	}
	if s.opts.Pprof {
		mux.Handle("/debug/pprof/", tele)
	}
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /campaigns/{id}/report", s.handleReport)
	mux.HandleFunc("GET /campaigns/{id}/manifest", s.handleManifest)
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
		fmt.Fprintln(w, "  GET    /campaigns/{id}/stream    result/progress stream (NDJSON or SSE)")
		fmt.Fprintln(w, "  GET    /campaigns/{id}/report    text report of completed units")
		fmt.Fprintln(w, "  GET    /campaigns/{id}/manifest  run-manifest artifact (JSON array)")
		fmt.Fprintln(w, "  DELETE /campaigns/{id}           cancel the campaign")
		fmt.Fprintln(w, "  GET    /metrics                  Prometheus text exposition")
		fmt.Fprintln(w, "  GET    /metrics.json /progress   JSON mirrors")
	})
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
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
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/campaigns/"+st.ID)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(st)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.List())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
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

func (s *Service) handleManifest(w http.ResponseWriter, r *http.Request) {
	ms, err := s.manifests(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", r.PathValue("id")+"-manifest.json"))
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(ms)
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
	Addr     string
	http     *obs.Server
	drained  chan struct{}
	drainErr error
}

// DrainGrace bounds how long a stopping service waits for in-flight
// units after its context is canceled.
const DrainGrace = 15 * time.Second

// Start binds addr and serves the campaign API until ctx is canceled,
// then drains: the HTTP listener shuts down with obs's bounded grace
// and the service waits for in-flight units up to DrainGrace. It
// returns as soon as the listener is bound.
func (s *Service) Start(ctx context.Context, addr string) (*Server, error) {
	hs, err := obs.ServeHandler(ctx, addr, s.Handler())
	if err != nil {
		return nil, err
	}
	srv := &Server{Addr: hs.Addr, http: hs, drained: make(chan struct{})}
	go func() {
		defer close(srv.drained)
		<-ctx.Done()
		dctx, cancel := context.WithTimeout(context.Background(), DrainGrace)
		defer cancel()
		srv.drainErr = s.Shutdown(dctx)
	}()
	return srv, nil
}

// Wait blocks until both the HTTP server and the worker pool have shut
// down, returning the first error (nil on a clean drain).
func (srv *Server) Wait() error {
	err := srv.http.Wait()
	<-srv.drained
	if err != nil {
		return err
	}
	return srv.drainErr
}
