// Command fgobs inspects the simulator's telemetry: it renders the run
// manifests of a results file as text, diffs two results files
// metric-by-metric (e.g. before/after a performance change), or tails a
// running fgserve's live /metrics + /progress endpoints from the
// terminal.
//
// Usage:
//
//	fgobs show run.ndjson          # render every manifest in the file
//	fgobs show -id F7 run.ndjson   # just one experiment
//	fgobs diff old.ndjson new.ndjson
//	                               # compare runs (matched by experiment ID)
//	fgobs diff -id F7 old.ndjson new.ndjson
//	fgobs tail -url http://127.0.0.1:9237
//	                               # stream fgserve progress + counter deltas
//
// A results file is NDJSON. Each line is either a bare
// fivegsim.result/v1 record (`fgbench -results`, `fgpop -results`) or an
// fgserve stream event (a saved /campaigns/{id}/stream), of which only
// result events carry a record; fgobs reads the manifest each record
// carries.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"fivegsim"
	"fivegsim/internal/obs"
	"fivegsim/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "show":
		cmdShow(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "tail":
		cmdTail(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fgobs show [-id EXP] results.ndjson
  fgobs diff [-id EXP] old.ndjson new.ndjson
  fgobs tail [-url FGSERVE_URL] [-interval DUR] [-follow]`)
	os.Exit(2)
}

func cmdShow(args []string) {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	id := fs.String("id", "", "only the manifest with this experiment ID")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	manifests := load(fs.Arg(0), *id)
	for _, m := range manifests {
		fmt.Print(m.String())
	}
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	id := fs.String("id", "", "only diff the manifest with this experiment ID")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	old := load(fs.Arg(0), *id)
	now := load(fs.Arg(1), *id)
	byID := map[string]obs.RunManifest{}
	for _, m := range now {
		byID[m.ExperimentID] = m
	}
	matched := 0
	for _, a := range old {
		b, ok := byID[a.ExperimentID]
		if !ok {
			fmt.Printf("only in %s: %s\n", fs.Arg(0), a.ExperimentID)
			continue
		}
		fmt.Print(obs.DiffManifests(a, b))
		delete(byID, a.ExperimentID)
		matched++
	}
	for id := range byID {
		fmt.Printf("only in %s: %s\n", fs.Arg(1), id)
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "fgobs: no matching experiment IDs between the two files")
		os.Exit(1)
	}
}

func load(path, id string) []obs.RunManifest {
	manifests, err := recordManifests(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgobs:", err)
		os.Exit(1)
	}
	if id == "" {
		return manifests
	}
	var out []obs.RunManifest
	for _, m := range manifests {
		if m.ExperimentID == id {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(os.Stderr, "fgobs: no manifest with ID %s in %s\n", id, path)
		os.Exit(1)
	}
	return out
}

// recordManifests returns the manifests of every record in the results
// file at path, in file order. Stream events other than results are
// skipped; a line that is neither a result/v1 record nor a stream event
// is an error that names the file and line.
func recordManifests(path string) ([]obs.RunManifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []obs.RunManifest
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev serve.Event
		err := json.Unmarshal(line, &ev)
		if err == nil && ev.Schema == serve.EventSchemaV1 {
			if ev.Kind == "result" && ev.Result != nil {
				out = append(out, ev.Result.Manifest)
			}
			continue
		}
		var rec fivegsim.Result
		if err == nil {
			err = json.Unmarshal(line, &rec)
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, rec.Manifest)
	}
	return out, nil
}
