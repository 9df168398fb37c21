package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// agreeMain compares two sets of untraced run records (JSON lines, as
// -json appends them) workload by workload and metric by metric. A
// metric agrees when the sets' medians differ by no more than its bound
// in BENCHMARK.json; it is unresolved when either set's own quartile
// spread exceeds the bound, since the sets then cannot tell a change of
// that size from noise. It exits 1 when any metric differs.
func agreeMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark agree A.jsonl B.jsonl")
		return 2
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark agree:", err)
		return 2
	}
	var sets [2]map[string][]record
	for i, path := range args {
		if sets[i], err = readRecords(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark agree:", err)
			return 2
		}
	}
	var workloads []string
	for w := range sets[0] {
		if _, ok := sets[1][w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark agree: the two sets share no workload")
		return 2
	}
	fmt.Printf("%-8s %-15s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A-1", "bound", "verdict")
	code := 0
	for _, w := range workloads {
		for _, d := range endToEndDefs {
			var stat [2]struct{ med, q1, q3 float64 }
			for i := range sets {
				var xs []float64
				for _, r := range sets[i][w] {
					xs = append(xs, r.Metrics[d.name].Value)
				}
				stat[i].med = median(xs)
				stat[i].q1, stat[i].q3 = quartiles(xs)
			}
			bound := bounds[d.name]
			diff := ratio(stat[1].med, stat[0].med) - 1
			verdict := "agree"
			switch {
			case ratio(stat[0].q3-stat[0].q1, stat[0].med) > bound || ratio(stat[1].q3-stat[1].q1, stat[1].med) > bound:
				verdict = "unresolved"
			case math.Abs(diff) > bound:
				verdict, code = "differ", 1
			}
			cell := func(i int) string {
				return fmt.Sprintf("%.5g [%.5g, %.5g]", stat[i].med, stat[i].q1, stat[i].q3)
			}
			fmt.Printf("%-8s %-15s %-34s %-34s %+7.1f%% %5.0f%%  %s\n", w, d.name, cell(0), cell(1), diff*100, bound*100, verdict)
		}
	}
	return code
}

// readBounds returns the end-to-end bounds BENCHMARK.json fixes.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, d := range endToEndDefs {
		if _, ok := bounds[d.name]; !ok {
			return nil, fmt.Errorf("%s: no bound for %s", path, d.name)
		}
	}
	return bounds, nil
}

// readRecords reads the untraced records of a JSON-lines file by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}
