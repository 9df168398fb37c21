package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fivegsim"
	"fivegsim/internal/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// newTestService builds a service with a synthetic runner so queueing,
// fairness and cancellation are testable without simulator wall-clock.
// The runner respects ctx like the real library: canceled before start
// means the unit never ran.
func newTestService(t *testing.T, opts Options, unitTime time.Duration) (*Service, *int32) {
	t.Helper()
	s := New(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	var ran int32
	s.run = func(ctx context.Context, id string, cfg fivegsim.Config) (fivegsim.Result, error) {
		if err := ctx.Err(); err != nil {
			return fivegsim.Result{}, err
		}
		atomic.AddInt32(&ran, 1)
		if unitTime > 0 {
			select {
			case <-time.After(unitTime):
			case <-ctx.Done():
				// A canceled in-flight unit still "finishes" — the real
				// library cannot interrupt a running experiment either.
			}
		}
		return fivegsim.Result{ID: id, Title: "fake " + id,
			Lines: []string{fmt.Sprintf("seed=%d", cfg.Seed)}}, nil
	}
	return s, &ran
}

func waitState(t *testing.T, s *Service, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.Status(id)
	t.Fatalf("campaign %s never reached %s (at %s, %d/%d units)", id, want, st.State, st.Completed, st.Units)
	return Status{}
}

// seedLadder returns the distinct seeds 1..n.
func seedLadder(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want error // sentinel expected on the chain (nil = valid)
	}{
		{"empty spec is a full default campaign", Spec{}, nil},
		{"explicit v1 schema", Spec{Schema: SpecSchemaV1, Experiments: []string{"T1"}}, nil},
		{"fault scenario preset", Spec{Scenario: "cell-failover", Experiments: []string{"X9"}}, nil},
		{"unknown schema", Spec{Schema: "fgserve.spec/v9"}, ErrInvalidSpec},
		{"duplicate seed in ladder", Spec{Seeds: []int64{1, 2, 1}}, ErrInvalidSpec},
		{"duplicate experiment", Spec{Experiments: []string{"T1", "T1"}}, ErrInvalidSpec},
		{"unknown experiment", Spec{Experiments: []string{"NOPE"}}, fivegsim.ErrUnknownExperiment},
		{"negative workers", Spec{Workers: -1}, fivegsim.ErrInvalidConfig},
		{"negative population", Spec{Population: -5}, fivegsim.ErrInvalidConfig},
		{"unknown scenario", Spec{Scenario: "meteor-strike"}, fault.ErrUnknownScenario},
		{"campaign at the unit bound", Spec{Experiments: []string{"T1"}, Seeds: seedLadder(maxUnits)}, nil},
		{"campaign one unit over the bound", Spec{Experiments: []string{"T1"}, Seeds: seedLadder(maxUnits + 1)}, ErrInvalidSpec},
		{"full registry over the bound", Spec{Seeds: seedLadder(maxUnits/len(fivegsim.Experiments()) + 1)}, ErrInvalidSpec},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v does not match %v", tc.name, err, tc.want)
		}
		if !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: error %v does not match ErrInvalidSpec", tc.name, err)
		}
	}
}

// TestSpecUnits: the unit expansion is seed-ladder order outer, paper
// order inner, regardless of how the spec listed the experiments.
func TestSpecUnits(t *testing.T) {
	sp := Spec{Experiments: []string{"F7", "T1", "F4"}, Seeds: []int64{7, 1}}
	got := sp.Units()
	want := []Unit{{7, "T1"}, {7, "F4"}, {7, "F7"}, {1, "T1"}, {1, "F4"}, {1, "F7"}}
	if len(got) != len(want) {
		t.Fatalf("units = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("units[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	if n := len((Spec{}).Units()); n != len(fivegsim.Experiments()) {
		t.Fatalf("empty spec expands to %d units, want the full registry", n)
	}
}

// TestServiceResultOrder: results stream in unit order (seed-major,
// paper order) even when a parallel pool completes them out of order.
func TestServiceResultOrder(t *testing.T) {
	s, _ := newTestService(t, Options{PoolWorkers: 4, MaxActive: 2}, 3*time.Millisecond)
	st, err := s.Submit(Spec{Experiments: []string{"F7", "T1", "F4"}, Seeds: []int64{9, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	err = s.Stream(context.Background(), st.ID, func(ev Event) error {
		if ev.Kind == "result" {
			order = append(order, fmt.Sprintf("%s@%d", ev.Result.ID, ev.Seed))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "T1@9,F4@9,F7@9,T1@3,F4@3,F7@3"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("result order %s, want %s", got, want)
	}
}

// TestStreamReplay: a subscriber arriving after the campaign finished
// sees the identical full event history a live subscriber saw.
func TestStreamReplay(t *testing.T) {
	s, _ := newTestService(t, Options{PoolWorkers: 2, MaxActive: 2}, 0)
	st, err := s.Submit(Spec{Experiments: []string{"T1", "F4"}})
	if err != nil {
		t.Fatal(err)
	}
	collect := func() []string {
		var seqs []string
		if err := s.Stream(context.Background(), st.ID, func(ev Event) error {
			seqs = append(seqs, fmt.Sprintf("%d:%s", ev.Seq, ev.Kind))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return seqs
	}
	live := collect()
	late := collect()
	if strings.Join(live, " ") != strings.Join(late, " ") {
		t.Fatalf("replay diverged:\nlive %v\nlate %v", live, late)
	}
	if live[len(live)-1] != fmt.Sprintf("%d:status", len(live)-1) {
		t.Fatalf("stream does not end with a status event: %v", live)
	}
}

// TestEventV1Golden pins the fgserve.event/v1 stream byte for byte: a
// 2-unit campaign on a one-worker pool, time-valued fields zeroed, one
// marshaled event per line. A renamed, retyped or reordered field or
// event shows up as a golden diff and needs a schema bump.
func TestEventV1Golden(t *testing.T) {
	s, _ := newTestService(t, Options{PoolWorkers: 1, MaxActive: 2}, 0)
	st, err := s.Submit(Spec{Name: "golden", Experiments: []string{"F4", "T1"}, Seeds: []int64{7}})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	err = s.Stream(context.Background(), st.ID, func(ev Event) error {
		if ev.Progress != nil {
			p := *ev.Progress
			p.Elapsed, p.ETA = 0, 0
			ev.Progress = &p
		}
		if ev.Status != nil {
			st := *ev.Status
			st.SubmittedAt, st.StartedAt, st.FinishedAt = time.Time{}, time.Time{}, time.Time{}
			st.Elapsed, st.ETA = 0, 0
			ev.Status = &st
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		got.Write(data)
		got.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "event_v1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run EventV1Golden -update` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s stream drifted from %s:\ngot:\n%s\nwant:\n%s", EventSchemaV1, path, got.Bytes(), want)
	}
}

// TestCancelMidCampaign: DELETE mid-run cancels the campaign context
// (errors.Is context.Canceled on the runner's ctx), pending units never
// start, the stream terminates, and the drained service leaks no
// goroutines.
func TestCancelMidCampaign(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Options{PoolWorkers: 1, MaxActive: 2})
	firstDone := make(chan struct{})
	release := make(chan struct{})
	ctxErrs := make(chan error, 16)
	var ran int32
	s.run = func(ctx context.Context, id string, cfg fivegsim.Config) (fivegsim.Result, error) {
		if err := ctx.Err(); err != nil {
			return fivegsim.Result{}, err
		}
		n := atomic.AddInt32(&ran, 1)
		if n == 1 {
			close(firstDone)
			return fivegsim.Result{ID: id, Title: "first"}, nil
		}
		// Second unit: hold until the test cancels, then report what the
		// campaign context said.
		select {
		case <-ctx.Done():
			ctxErrs <- context.Cause(ctx)
		case <-release:
		}
		return fivegsim.Result{ID: id, Title: "second"}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := bytes.NewBufferString(`{"schema":"fgserve.spec/v1","experiments":["T1","F4","F7","F10"]}`)
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d: %+v", resp.StatusCode, st)
	}
	<-firstDone

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled Status
	json.NewDecoder(resp.Body).Decode(&canceled)
	resp.Body.Close()
	if canceled.State != StateCanceled {
		t.Fatalf("DELETE left state %s", canceled.State)
	}
	if canceled.Error != context.Canceled.Error() {
		t.Fatalf("canceled status error = %q, want %q", canceled.Error, context.Canceled.Error())
	}
	select {
	case err := <-ctxErrs:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("in-flight unit saw %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight unit never observed the cancellation")
	}
	// The stream drains: in-flight unit lands, then the log closes.
	if err := s.Stream(context.Background(), st.ID, func(Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, StateCanceled)
	if n := atomic.LoadInt32(&ran); n != 2 {
		t.Fatalf("%d units ran after a cancel at unit 2 (pool=1)", n)
	}
	if final.Completed != 2 {
		t.Fatalf("completed = %d, want 2 (first unit + the in-flight one)", final.Completed)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d before, %d after drain\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestTwoTenantFairness: under a saturated single-worker pool, a small
// campaign submitted behind a large one still makes progress — the
// round-robin pool interleaves their units instead of queueing
// head-to-tail.
func TestTwoTenantFairness(t *testing.T) {
	s, _ := newTestService(t, Options{PoolWorkers: 1, MaxActive: 2}, 4*time.Millisecond)
	big, err := s.Submit(Spec{Name: "big", Experiments: []string{"T1", "F4"}, Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}})
	if err != nil {
		t.Fatal(err)
	}
	// Let the big campaign get a head start, then contend.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := s.Status(big.ID)
		if st.Completed >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("big campaign never started")
		}
		time.Sleep(time.Millisecond)
	}
	small, err := s.Submit(Spec{Name: "small", Experiments: []string{"T1", "F4"}, Seeds: []int64{99}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, small.ID, StateDone)
	bigAtSmallDone, err := s.Status(big.ID)
	if err != nil {
		t.Fatal(err)
	}
	if bigAtSmallDone.State != StateRunning {
		t.Fatalf("big campaign is %s (%d/%d) at small-campaign completion — no fair sharing",
			bigAtSmallDone.State, bigAtSmallDone.Completed, bigAtSmallDone.Units)
	}
	waitState(t, s, big.ID, StateDone)
}

// TestAdmissionBound: the queue is bounded — a submit past MaxActive
// is refused with ErrQueueFull / HTTP 503, and space frees up when a
// campaign finishes.
func TestAdmissionBound(t *testing.T) {
	s, _ := newTestService(t, Options{PoolWorkers: 1, MaxActive: 1}, 2*time.Millisecond)
	first, err := s.Submit(Spec{Experiments: []string{"T1"}, Seeds: []int64{1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(Spec{Experiments: []string{"T1"}})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-admission returned %v, want ErrQueueFull", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json",
		strings.NewReader(`{"experiments":["T1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-admission over HTTP: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	waitState(t, s, first.ID, StateDone)
	if _, err := s.Submit(Spec{Experiments: []string{"T1"}}); err != nil {
		t.Fatalf("admission after completion failed: %v", err)
	}
}

// TestHTTPValidationErrors: bad specs fail at the boundary with 400 and
// a JSON error body; unknown campaigns are 404.
func TestHTTPValidationErrors(t *testing.T) {
	s, _ := newTestService(t, Options{PoolWorkers: 1, MaxActive: 2}, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cases := []struct {
		body string
		code int
	}{
		{`{"schema":"fgserve.spec/v9"}`, http.StatusBadRequest},
		{`{"experiments":["NOPE"]}`, http.StatusBadRequest},
		{`{"seeds":[1,1]}`, http.StatusBadRequest},
		{`{"workers":-1}`, http.StatusBadRequest},
		{`{"scenario":"meteor-strike"}`, http.StatusBadRequest},
		{`{"unknown_field":true}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var doc errorDoc
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != tc.code || doc.Error == "" {
			t.Errorf("POST %s: status %d (want %d), error %q", tc.body, resp.StatusCode, tc.code, doc.Error)
		}
	}
	// A body past the cap is refused before it is decoded in full.
	big := `{"name":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST of a %d-byte spec: status %d, want 400", len(big), resp.StatusCode)
	}
	for _, path := range []string{"/campaigns/c9999", "/campaigns/c9999/stream", "/campaigns/c9999/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServiceEndToEnd drives the real library through the full HTTP
// surface: POST a quick spec, tail the NDJSON stream, and check the
// acceptance contract — results arrive in paper order, /metrics is
// live, and the final report is byte-identical to the same spec run
// through fivegsim.RunExperimentsContext directly.
func TestServiceEndToEnd(t *testing.T) {
	s := New(Options{PoolWorkers: 2, MaxActive: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Experiments listed out of paper order on purpose: the service
	// must stream them T1, F4, F10 anyway. F10 exercises the DES
	// substrate so /metrics carries simulator series, not just serve_*.
	resp, err := http.Post(ts.URL+"/campaigns", "application/json",
		strings.NewReader(`{"schema":"fgserve.spec/v1","name":"e2e","experiments":["F10","F4","T1"],"seeds":[7],"quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.Units != 3 {
		t.Fatalf("submit: status %d, %+v", resp.StatusCode, st)
	}

	// Tail the stream to completion, collecting result IDs in arrival
	// order and checking the v1 result envelope decodes and carries its
	// run manifest.
	resp, err = http.Get(ts.URL + "/campaigns/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var resultIDs []string
	var sawStatus *Status
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Kind {
		case "result":
			if ev.Result == nil || ev.Result.ID == "" {
				t.Fatalf("result event without result: %s", sc.Text())
			}
			if ev.Result.Manifest.ExperimentID != ev.Result.ID {
				t.Fatalf("result %s carries manifest %q", ev.Result.ID, ev.Result.Manifest.ExperimentID)
			}
			resultIDs = append(resultIDs, ev.Result.ID)
		case "status":
			sawStatus = ev.Status
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(resultIDs, ","); got != "T1,F4,F10" {
		t.Fatalf("streamed results %q, want paper order T1,F4,F10", got)
	}
	if sawStatus == nil || sawStatus.State != StateDone || sawStatus.Failed != 0 {
		t.Fatalf("terminal status event %+v", sawStatus)
	}

	// /metrics is live and carries both service and simulator series.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, series := range []string{"serve_campaigns_submitted 1", "serve_units_completed 3", "des_events_fired"} {
		if !strings.Contains(prom.String(), series) {
			t.Fatalf("/metrics missing %q:\n%s", series, prom.String())
		}
	}

	// Acceptance: the served report is byte-identical to the same spec
	// run directly through the library.
	resp, err = http.Get(ts.URL + "/campaigns/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	served.ReadFrom(resp.Body)
	resp.Body.Close()
	spec := Spec{Experiments: []string{"F10", "F4", "T1"}, Seeds: []int64{7}, Quick: true}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fivegsim.RunExperimentsContext(context.Background(), cfg, "T1", "F4", "F10")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range direct {
		want.WriteString(r.Report())
	}
	if served.String() != want.String() {
		t.Fatalf("served report differs from direct run:\n-- served --\n%s\n-- direct --\n%s", served.String(), want.String())
	}
}

// TestSSEFraming: an event-stream Accept header switches the stream to
// SSE framing with ids and event names.
func TestSSEFraming(t *testing.T) {
	s, _ := newTestService(t, Options{PoolWorkers: 1, MaxActive: 2}, 0)
	st, err := s.Submit(Spec{Experiments: []string{"T1"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, StateDone)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/campaigns/"+st.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	for _, want := range []string{"id: 0\n", "event: result\n", "event: status\n", "data: {"} {
		if !strings.Contains(body.String(), want) {
			t.Fatalf("SSE body missing %q:\n%s", want, body.String())
		}
	}
}

// TestProgressAcrossCampaigns: /progress folds every campaign into one
// service-wide unit count. A campaign submitted after a finished one
// must not read done while it runs; two seeds of one experiment in
// flight at once both stay running until the second finishes; and a
// canceled campaign's pending units leave the total.
func TestProgressAcrossCampaigns(t *testing.T) {
	s := New(Options{PoolWorkers: 2, MaxActive: 4})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	started := make(chan string, 16)
	release := make(chan struct{})
	s.run = func(ctx context.Context, id string, cfg fivegsim.Config) (fivegsim.Result, error) {
		if err := ctx.Err(); err != nil {
			return fivegsim.Result{}, err
		}
		started <- fmt.Sprintf("%s@%d", id, cfg.Seed)
		<-release
		return fivegsim.Result{ID: id}, nil
	}
	waitStarted := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d of %d units started", i, n)
			}
		}
	}
	waitProgress := func(what string, ok func(Progress) bool) Progress {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			snap := s.Progress()
			if ok(snap) {
				return snap
			}
			if time.Now().After(deadline) {
				t.Fatalf("/progress never reached %s: %+v", what, snap)
			}
			time.Sleep(time.Millisecond)
		}
	}
	running := func(snap Progress) string { return strings.Join(snap.Running, ",") }

	// Campaign A: two units, run to completion.
	a, err := s.Submit(Spec{Experiments: []string{"T1", "F4"}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(2)
	release <- struct{}{}
	release <- struct{}{}
	waitState(t, s, a.ID, StateDone)
	waitProgress("2/2 done", func(p Progress) bool { return p.Done && p.Completed == 2 && p.Total == 2 })

	// Campaign B: a 2-seed ladder of one experiment on the 2-worker pool.
	b, err := s.Submit(Spec{Experiments: []string{"T1"}, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	waitStarted(2)
	snap := s.Progress()
	if snap.Done || snap.Total != 4 || snap.Completed != 2 || running(snap) != "T1" {
		t.Fatalf("both ladder seeds in flight: %+v, want 2/4 running T1", snap)
	}
	release <- struct{}{}
	snap = waitProgress("3/4", func(p Progress) bool { return p.Completed == 3 })
	if snap.Done || snap.Total != 4 || running(snap) != "T1" {
		t.Fatalf("one ladder seed finished: %+v, want 3/4 with T1 still running", snap)
	}
	release <- struct{}{}
	waitState(t, s, b.ID, StateDone)
	snap = waitProgress("4/4 done", func(p Progress) bool { return p.Done })
	if snap.Total != 4 || snap.Completed != 4 || len(snap.Running) != 0 {
		t.Fatalf("after campaign B: %+v, want 4/4 done, nothing running", snap)
	}

	// Campaign C: three units, canceled with one still pending.
	c, err := s.Submit(Spec{Experiments: []string{"T1", "F4", "F7"}, Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if snap := s.Progress(); snap.Done || snap.Total != 7 {
		t.Fatalf("after submitting C: %+v, want total 7, not done", snap)
	}
	waitStarted(2)
	if _, err := s.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	if snap := s.Progress(); snap.Done || snap.Total != 6 || snap.Completed != 4 {
		t.Fatalf("after canceling C: %+v, want 4/6, not done", snap)
	}
	release <- struct{}{}
	release <- struct{}{}
	if err := s.Stream(context.Background(), c.ID, func(Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	snap = waitProgress("6/6 done", func(p Progress) bool { return p.Done })
	if snap.Total != 6 || snap.Completed != 6 || len(snap.Running) != 0 {
		t.Fatalf("after campaign C drained: %+v, want 6/6 done, nothing running", snap)
	}
}
