package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"fivegsim"
	"fivegsim/internal/obs"
)

func get(t *testing.T, client *http.Client, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestServeEndpointsAndShutdown drives a live server end to end: bind on
// port 0, scrape every telemetry endpoint, then cancel the context — the
// one shutdown path — and verify Wait returns clean and the port closes.
func TestServeEndpointsAndShutdown(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("pop.ticks").Add(3)
	reg.Counter("des.events_fired").Add(11)
	reg.Histogram("pop.tick_wall_us", obs.DurationBuckets).Observe(250)
	tracer := obs.NewTracer(16)
	tracer.Span("pop.tick", "pop", 0, 100*time.Millisecond)
	s, _ := newTestService(t, Options{PoolWorkers: 1, MaxActive: 2, Registry: reg, Tracer: tracer}, 0)
	st, err := s.Submit(Spec{Experiments: []string{"X12"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)

	ctx, cancel := context.WithCancel(context.Background())
	srv, err := s.Start(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(srv.Addr, ":") || strings.HasSuffix(srv.Addr, ":0") {
		t.Fatalf("Start did not resolve the bound port: %q", srv.Addr)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + srv.Addr

	code, body, hdr := get(t, client, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	for _, want := range []string{"# TYPE pop_ticks counter", "pop_ticks 3",
		"des_events_fired 11", `pop_tick_wall_us_bucket{le="+Inf"} 1`, "serve_units_completed 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, _ = get(t, client, base+"/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", code)
	}
	var metrics []obs.Metric
	if err := json.Unmarshal([]byte(body), &metrics); err != nil {
		t.Fatalf("/metrics.json is not a Metric array: %v", err)
	}
	names := map[string]bool{}
	for _, m := range metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"pop.ticks", "des.events_fired", "pop.tick_wall_us", "serve.units_completed"} {
		if !names[want] {
			t.Errorf("/metrics.json missing %s: %s", want, body)
		}
	}

	code, body, _ = get(t, client, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/progress is not a Progress document: %v", err)
	}
	if p.Total != 1 || p.Completed != 1 || !p.Done || len(p.Running) != 0 {
		t.Fatalf("/progress = %+v, want 1/1 done", p)
	}

	code, body, _ = get(t, client, base+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	var trace struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("/trace is not a Chrome-trace document: %v", err)
	}
	if len(trace.TraceEvents) != 1 {
		t.Fatalf("/trace has %d events, want 1", len(trace.TraceEvents))
	}

	if code, _, _ = get(t, client, base+"/"); code != http.StatusOK {
		t.Fatalf("index status %d", code)
	}
	if code, _, _ = get(t, client, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", code)
	}

	cancel()
	if err := srv.Wait(); err != nil {
		t.Fatalf("shutdown reported %v", err)
	}
	if _, err := client.Get(base + "/metrics"); err == nil {
		t.Fatal("server still answering after context cancellation")
	}
	if _, err := s.Submit(Spec{Experiments: []string{"T1"}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown returned %v, want ErrDraining", err)
	}
}

func TestServeBadAddr(t *testing.T) {
	s, _ := newTestService(t, Options{PoolWorkers: 1}, 0)
	if _, err := s.Start(context.Background(), "127.0.0.1:-1"); err == nil {
		t.Fatal("Start on an invalid address must fail")
	}
}

// TestHandlerOptionalEndpoints: /trace and pprof mount only when
// configured; the bare handler still serves both metrics forms and
// /progress.
func TestHandlerOptionalEndpoints(t *testing.T) {
	s, _ := newTestService(t, Options{PoolWorkers: 1}, 0)
	bare := httptest.NewServer(s.Handler())
	defer bare.Close()
	for _, path := range []string{"/metrics", "/metrics.json", "/progress"} {
		if code, _, _ := get(t, bare.Client(), bare.URL+path); code != http.StatusOK {
			t.Errorf("bare %s returned %d, want 200", path, code)
		}
	}
	for _, path := range []string{"/trace", "/debug/pprof/"} {
		if code, _, _ := get(t, bare.Client(), bare.URL+path); code != http.StatusNotFound {
			t.Errorf("unconfigured %s returned %d, want 404", path, code)
		}
	}

	s, _ = newTestService(t, Options{PoolWorkers: 1, Tracer: obs.NewTracer(8), Pprof: true}, 0)
	full := httptest.NewServer(s.Handler())
	defer full.Close()
	for _, path := range []string{"/progress", "/trace", "/debug/pprof/"} {
		if code, _, _ := get(t, full.Client(), full.URL+path); code != http.StatusOK {
			t.Errorf("configured %s returned %d, want 200", path, code)
		}
	}
}

// TestProgressReportsUnitTicks: each running unit's EventTick reaches
// /progress through cfg.OnEvent and leaves with the unit, and the
// document counts failures and extrapolates an ETA until done.
func TestProgressReportsUnitTicks(t *testing.T) {
	s, _ := newTestService(t, Options{PoolWorkers: 2, MaxActive: 2}, 0)
	ticks := map[string]TickState{"X12": {Tick: 3, Ticks: 25}, "X13": {Tick: 7, Ticks: 30}}
	release := map[string]chan struct{}{"X12": make(chan struct{}), "X13": make(chan struct{})}
	ticked := make(chan struct{}, 2)
	s.run = func(ctx context.Context, id string, cfg fivegsim.Config) (fivegsim.Result, error) {
		cfg.OnEvent(fivegsim.Event{Kind: fivegsim.EventTick, Experiment: id, Tick: ticks[id].Tick, Ticks: ticks[id].Ticks})
		ticked <- struct{}{}
		<-release[id]
		if id == "X13" {
			return fivegsim.Result{ID: id, Err: errors.New("synthetic crash")}, nil
		}
		return fivegsim.Result{ID: id}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	progress := func() Progress {
		t.Helper()
		_, body, _ := get(t, ts.Client(), ts.URL+"/progress")
		var p Progress
		if err := json.Unmarshal([]byte(body), &p); err != nil {
			t.Fatalf("/progress is not a Progress document: %v", err)
		}
		return p
	}

	st, err := s.Submit(Spec{Experiments: []string{"X13", "X12"}})
	if err != nil {
		t.Fatal(err)
	}
	<-ticked
	<-ticked
	p := progress()
	if p.Done || p.Total != 2 || p.Completed != 0 || strings.Join(p.Running, ",") != "X12,X13" || !reflect.DeepEqual(p.Ticks, ticks) {
		t.Fatalf("/progress with both units ticking = %+v, want X12 3/25 and X13 7/30 running", p)
	}

	close(release["X13"])
	for deadline := time.Now().Add(10 * time.Second); p.Completed < 1; p = progress() {
		if time.Now().After(deadline) {
			t.Fatalf("/progress never counted the finished unit: %+v", p)
		}
		time.Sleep(time.Millisecond)
	}
	if p.Done || p.Failed != 1 || strings.Join(p.Running, ",") != "X12" || len(p.Ticks) != 1 || p.Ticks["X12"] != ticks["X12"] || p.ETA <= 0 {
		t.Fatalf("/progress after the failed unit = %+v, want 1/2 with 1 failure, X12 still ticking, an ETA", p)
	}

	close(release["X12"])
	waitState(t, s, st.ID, StateDone)
	p = progress()
	if !p.Done || p.Completed != 2 || p.Failed != 1 || len(p.Running) != 0 || p.Ticks != nil || p.ETA != 0 {
		t.Fatalf("/progress after both units = %+v, want 2/2 done, 1 failure, no ticks, no ETA", p)
	}
}
