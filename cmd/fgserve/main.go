// Command fgserve runs the fivegsim campaign service: a long-running
// HTTP/JSON endpoint that accepts versioned campaign specs, runs them
// on a bounded job queue where concurrent campaigns share the worker
// pool fairly, and streams per-result progress.
//
// Usage:
//
//	fgserve                          # serve on 127.0.0.1:9237
//	fgserve -addr 127.0.0.1:0        # pick a free port
//	fgserve -pool 4 -max 16          # 4 unit workers, 16 admitted campaigns
//	fgserve -pprof                   # mount /debug/pprof/
//
// Submit a campaign and watch it:
//
//	curl -X POST localhost:9237/campaigns -d '{
//	  "schema": "fgserve.spec/v1",
//	  "experiments": ["T1", "F7"], "seeds": [42], "quick": true}'
//	curl localhost:9237/campaigns/c0001/stream      # NDJSON result stream
//	                                                # (save it for fgobs show/diff)
//	curl localhost:9237/campaigns/c0001             # status + ETA
//	curl localhost:9237/campaigns/c0001/report      # paper-order text report
//	curl -X DELETE localhost:9237/campaigns/c0001   # cancel
//	curl localhost:9237/metrics                     # live Prometheus scrape
//
// SIGINT/SIGTERM drains gracefully: admission closes, campaigns are
// canceled, in-flight experiments finish (bounded by serve.DrainGrace)
// and the process exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"fivegsim/internal/obs"
	"fivegsim/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9237", "listen address (port 0 picks a free port)")
	pool := flag.Int("pool", 0, "worker-pool size shared by all campaigns (0 = all cores)")
	maxActive := flag.Int("max", 0, "max campaigns queued or running at once (0 = default 8)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	trace := flag.Bool("trace", false, "record a Chrome trace ring served at /trace")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tracer *obs.Tracer
	if *trace {
		tracer = obs.NewTracer(0)
	}
	svc := serve.New(serve.Options{
		PoolWorkers: *pool, MaxActive: *maxActive, Tracer: tracer, Pprof: *pprofOn,
	})
	srv, err := svc.Start(ctx, *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgserve:", err)
		os.Exit(1)
	}
	fmt.Printf("fgserve: serving campaigns on http://%s (POST /campaigns; GET /campaigns/{id}[/stream|/report]; /metrics)\n", srv.Addr)
	if err := srv.Wait(); err != nil {
		fmt.Fprintln(os.Stderr, "fgserve:", err)
		os.Exit(1)
	}
	fmt.Println("fgserve: drained clean")
}
