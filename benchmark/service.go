package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fivegsim"
	"fivegsim/internal/obs"
	"fivegsim/internal/serve"
)

// The service workload's concurrency: closed-loop clients and pool workers.
const (
	serviceClients = 2
	servicePool    = 2
)

// service drives an in-process campaign service over loopback HTTP as a
// closed loop: each client POSTs a campaign, reads its stream to the
// terminal status, then submits the next. Odd campaigns reuse one shared
// seed ladder; even ones use seeds no other campaign in the run uses.
type service struct {
	ids       []string
	shared    []int64 // the shared ladder, drawn from the digest pool
	freshBase int64

	reg    *obs.Registry
	svc    *serve.Service
	ts     *httptest.Server
	next   atomic.Int64
	mu     sync.Mutex
	sample map[int64]map[string]string // fresh seed → experiment → streamed digest
}

// start caps the process at the pool size, as batch.start does.
func (s *service) start() error {
	runtime.GOMAXPROCS(servicePool)
	s.reg = obs.NewRegistry()
	s.svc = serve.New(serve.Options{PoolWorkers: servicePool, MaxActive: 8, Registry: s.reg})
	s.ts = httptest.NewServer(s.svc.Handler())
	s.sample = map[int64]map[string]string{}
	return nil
}

// ladder returns campaign k's seed ladder.
func (s *service) ladder(k int64) []int64 {
	if k%2 == 1 {
		return s.shared
	}
	return []int64{s.freshBase + k, s.freshBase + k + 1}
}

// submit POSTs campaign k's spec and returns the admitted status.
func (s *service) submit(ctx context.Context, k int64) (serve.Status, error) {
	body, err := json.Marshal(serve.Spec{Schema: serve.SpecSchemaV1, Name: fmt.Sprintf("bench-%d", k),
		Experiments: s.ids, Seeds: s.ladder(k), Quick: true})
	if err != nil {
		return serve.Status{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/campaigns", bytes.NewReader(body))
	if err != nil {
		return serve.Status{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return serve.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return serve.Status{}, fmt.Errorf("POST /campaigns: %s", resp.Status)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.Status{}, fmt.Errorf("POST /campaigns: %w", err)
	}
	return st, nil
}

func (s *service) run(ctx context.Context, p *phase, until time.Time) {
	p.reg, p.before = s.reg, s.reg.Snapshot()
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for first := true; ; first = false {
				if ctx.Err() != nil || (!first && !time.Now().Before(until)) {
					return
				}
				s.campaign(ctx, p, s.next.Add(1)-1, client)
			}
		}(c)
	}
	wg.Wait()
}

// campaign runs campaign k end to end and checks everything it streams:
// results in seed-ladder × paper order, each matching its digest, and a
// terminal state of done.
func (s *service) campaign(ctx context.Context, p *phase, k int64, client int) {
	seeds := s.ladder(k)
	n := len(seeds) * len(s.ids)
	p.attempt(n)
	t0 := time.Now()
	st, err := s.submit(ctx, k)
	posted := time.Since(t0)
	if err != nil {
		p.fail(n, "campaign %d: %v", k, err)
		return
	}
	got, first, state, err := s.stream(ctx, p, st.ID, k, seeds, t0)
	done := time.Since(t0)
	switch {
	case err != nil:
		p.fail(n-got, "campaign %d: stream: %v", k, err)
	case state != serve.StateDone:
		p.fail(n-got, "campaign %d ended %s", k, state)
	case got < n:
		p.fail(n-got, "campaign %d: %d of %d results", k, got, n)
	default:
		p.cycle(done)
		p.mu.Lock()
		p.submits = append(p.submits, posted.Seconds())
		p.firsts = append(p.firsts, first.Seconds())
		p.mu.Unlock()
	}
	if p.traced {
		name := fmt.Sprintf("campaign %s", st.ID)
		p.span(span{Name: name, Start: t0, Dur: done, Tid: client + 1})
		p.span(span{Name: "POST", Start: t0, Dur: posted, Tid: client + 1, Parent: name})
		p.span(span{Name: "stream", Start: t0.Add(posted), Dur: done - posted, Tid: client + 1, Parent: name})
		if first > 0 {
			p.span(span{Name: "first result", Start: t0.Add(first), Tid: client + 1, Parent: name})
		}
	}
}

// stream tails one campaign's NDJSON event stream to its end and returns
// how many results arrived, the time from submission at t0 to the first
// of them, and the terminal state.
func (s *service) stream(ctx context.Context, p *phase, id string, k int64, seeds []int64, t0 time.Time) (int, time.Duration, serve.State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/campaigns/"+id+"/stream", nil)
	if err != nil {
		return 0, 0, "", err
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return 0, 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, "", fmt.Errorf("GET stream: %s", resp.Status)
	}
	var (
		got   int
		first time.Duration
		state serve.State
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return got, first, state, fmt.Errorf("bad event: %w", err)
		}
		switch {
		case ev.Kind == "status" && ev.Status != nil:
			state = ev.Status.State
		case ev.Kind == "result" && ev.Result != nil:
			if got == len(seeds)*len(s.ids) {
				return got, first, state, fmt.Errorf("extra result %s@%d", ev.Result.ID, ev.Seed)
			}
			if first == 0 {
				first = time.Since(t0)
			}
			seed, want := seeds[got/len(s.ids)], s.ids[got%len(s.ids)]
			got++
			if ev.Seed != seed {
				p.fail(1, "campaign %d: result %s@%d out of order, want %s@%d", k, ev.Result.ID, ev.Seed, want, seed)
				continue
			}
			s.checkResult(p, *ev.Result, want, seed, k)
			p.unit(*ev.Result)
		}
	}
	return got, first, state, sc.Err()
}

// checkResult checks a streamed result against the committed digests. A
// fresh seed has none: its errors are checked here, and every sixteenth
// fresh campaign is kept for finish to recompute through the library.
func (s *service) checkResult(p *phase, r fivegsim.Result, id string, seed, k int64) {
	want, known := digests[digestKey(id, seed, true)]
	if !known {
		want = digest(r)
		if k%32 == 0 {
			s.mu.Lock()
			if s.sample[seed] == nil {
				s.sample[seed] = map[string]string{}
			}
			s.sample[seed][id] = want
			s.mu.Unlock()
		}
	}
	p.check(r, id, seed, want)
}

// finish recomputes the sampled fresh campaigns through
// RunExperimentsContext — the service must report what the library
// reports — and stops the service.
func (s *service) finish(ctx context.Context, p *phase) {
	for seed, got := range s.sample {
		res, err := fivegsim.RunExperimentsContext(ctx, fivegsim.Config{Seed: seed, Quick: true, Workers: 1}, s.ids...)
		if err != nil {
			p.fail(len(got), "recompute seed %d: %v", seed, err)
			continue
		}
		for _, r := range res {
			if d, ok := got[r.ID]; ok && d != digest(r) {
				p.fail(1, "%s@%d: service streamed a different result than the library computes", r.ID, seed)
			}
		}
	}
	s.ts.Close()
	sctx, cancel := context.WithTimeout(ctx, serve.DrainGrace)
	defer cancel()
	if err := s.svc.Shutdown(sctx); err != nil {
		p.fail(0, "shutdown: %v", err)
	}
}
