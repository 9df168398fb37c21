// Command fgobs inspects the simulator's telemetry: it renders a run
// manifest's metrics snapshot as text, diffs two manifests
// metric-by-metric (e.g. before/after a performance change), or tails a
// running fgserve's live /metrics + /progress endpoints from the
// terminal.
//
// Usage:
//
//	fgobs show run.json            # render every manifest in the file
//	fgobs show -id F7 run.json     # just one experiment
//	fgobs diff old.json new.json   # compare runs (matched by ID)
//	fgobs diff -id F7 old.json new.json
//	fgobs tail -url http://127.0.0.1:9237
//	                               # stream fgserve progress + counter deltas
//
// Manifest files come from `fgbench -manifest out.json` and hold either
// a single manifest or a JSON array of them.
package main

import (
	"flag"
	"fmt"
	"os"

	"fivegsim/internal/obs"
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
  fgobs show [-id EXP] manifest.json
  fgobs diff [-id EXP] old.json new.json
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
	manifests, err := obs.ReadManifests(path)
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
