package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"fivegsim/internal/obs"
	"fivegsim/internal/serve"
)

// cmdTail streams periodic snapshot deltas from a running fgserve's
// /metrics.json and /progress to the terminal: one progress line per
// interval plus the counters that moved, with per-second rates. By
// default it exits when /progress reports every submitted unit done (or
// when the endpoint disappears); -follow keeps tailing until
// interrupted.
func cmdTail(args []string) {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:9237", "base URL of a running fgserve")
	interval := fs.Duration("interval", time.Second, "polling interval")
	follow := fs.Bool("follow", false, "keep tailing after the campaign reports done")
	fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}
	base := strings.TrimSuffix(*url, "/")
	client := &http.Client{Timeout: 5 * time.Second}

	prev := map[string]float64{}
	prevAt := time.Now()
	first := true
	for misses := 0; ; {
		var snap serve.Progress
		haveProgress := getJSON(client, base+"/progress", &snap) == nil
		var metrics []obs.Metric
		if err := getJSON(client, base+"/metrics.json", &metrics); err != nil {
			misses++
			if misses >= 3 {
				fmt.Fprintf(os.Stderr, "fgobs: %s unreachable: %v\n", base, err)
				os.Exit(1)
			}
			time.Sleep(*interval)
			continue
		}
		misses = 0
		now := time.Now()
		dt := now.Sub(prevAt).Seconds()
		if haveProgress {
			line := fmt.Sprintf("progress %d/%d done", snap.Completed, snap.Total)
			if snap.Failed > 0 {
				line += fmt.Sprintf(", %d failed", snap.Failed)
			}
			if len(snap.Running) > 0 {
				line += " | running " + strings.Join(snap.Running, ",")
			}
			for _, id := range sortedTickIDs(snap.Ticks) {
				st := snap.Ticks[id]
				line += fmt.Sprintf(" | %s tick %d/%d", id, st.Tick, st.Ticks)
			}
			if snap.ETA > 0 {
				line += fmt.Sprintf(" | eta %s", snap.ETA.Round(time.Second))
			}
			fmt.Println(line)
		}
		// The first poll only records the baseline — deltas against an
		// empty map would just replay the counters' lifetime totals.
		moved := 0
		for _, m := range metrics {
			if m.Kind != "counter" {
				continue
			}
			delta := m.Value - prev[m.Name]
			prev[m.Name] = m.Value
			if first || delta <= 0 || dt <= 0 {
				continue
			}
			fmt.Printf("  %-44s +%-12.0f %12.0f/s\n", m.Name, delta, delta/dt)
			moved++
		}
		if moved == 0 && !first {
			fmt.Println("  (no counter movement)")
		}
		first = false
		prevAt = now
		if haveProgress && snap.Done && !*follow {
			fmt.Println("fgobs: campaign done")
			return
		}
		time.Sleep(*interval)
	}
}

func sortedTickIDs(ticks map[string]serve.TickState) []string {
	ids := make([]string, 0, len(ticks))
	for id := range ticks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func getJSON(client *http.Client, url string, out interface{}) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
