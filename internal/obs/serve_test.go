package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func serveTestOptions() ServeOptions {
	reg := NewRegistry()
	reg.Counter("pop.ticks").Add(3)
	reg.Counter("des.events_fired").Add(11)
	reg.Histogram("pop.tick_wall_us", DurationBuckets).Observe(250)
	tracker := NewProgressTracker()
	tracker.Observe(ProgressEvent{Kind: ProgressExperimentStart, Experiment: "X12", Total: 1})
	tracer := NewTracer(16)
	tracer.Span("pop.tick", "pop", 0, 100*time.Millisecond)
	return ServeOptions{Registry: reg, Progress: tracker, Tracer: tracer}
}

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
// port 0, scrape every endpoint, then cancel the context — the one
// shutdown path — and verify Wait returns clean and the port closes.
func TestServeEndpointsAndShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := ServeHandler(ctx, "127.0.0.1:0", Handler(serveTestOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(srv.Addr, ":") || strings.HasSuffix(srv.Addr, ":0") {
		t.Fatalf("ServeHandler did not resolve the bound port: %q", srv.Addr)
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
		"des_events_fired 11", `pop_tick_wall_us_bucket{le="+Inf"} 1`} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, _ = get(t, client, base+"/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", code)
	}
	var metrics []Metric
	if err := json.Unmarshal([]byte(body), &metrics); err != nil {
		t.Fatalf("/metrics.json is not a Metric array: %v", err)
	}
	if len(metrics) != 3 {
		t.Fatalf("/metrics.json has %d metrics, want 3", len(metrics))
	}

	code, body, _ = get(t, client, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var snap ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress is not a ProgressSnapshot: %v", err)
	}
	if snap.Total != 1 || len(snap.Running) != 1 || snap.Running[0] != "X12" {
		t.Fatalf("/progress snapshot = %+v", snap)
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
}

func TestServeBadAddr(t *testing.T) {
	if _, err := ServeHandler(context.Background(), "127.0.0.1:-1", Handler(ServeOptions{})); err == nil {
		t.Fatal("ServeHandler on an invalid address must fail")
	}
}

// TestHandlerOptionalEndpoints: progress/trace/pprof mount only when
// configured; the bare handler still serves both metrics forms (empty
// documents on a nil registry).
func TestHandlerOptionalEndpoints(t *testing.T) {
	bare := httptest.NewServer(Handler(ServeOptions{}))
	defer bare.Close()
	client := bare.Client()
	if code, body, _ := get(t, client, bare.URL+"/metrics"); code != http.StatusOK || body != "" {
		t.Fatalf("nil-registry /metrics = %d %q", code, body)
	}
	for _, path := range []string{"/progress", "/trace", "/debug/pprof/"} {
		if code, _, _ := get(t, client, bare.URL+path); code != http.StatusNotFound {
			t.Errorf("unconfigured %s returned %d, want 404", path, code)
		}
	}

	full := httptest.NewServer(Handler(ServeOptions{
		Registry: NewRegistry(), Progress: NewProgressTracker(), Tracer: NewTracer(8), Pprof: true,
	}))
	defer full.Close()
	for _, path := range []string{"/progress", "/trace", "/debug/pprof/"} {
		if code, _, _ := get(t, full.Client(), full.URL+path); code != http.StatusOK {
			t.Errorf("configured %s returned %d, want 200", path, code)
		}
	}
}
