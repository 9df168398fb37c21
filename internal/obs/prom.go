package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition (version 0.0.4) of a registry.
//
// The simulator's `pkg.metric{label=value}` names translate mechanically:
// dots become underscores in the metric family name, the label block is
// re-rendered with quoted, escaped values, and histograms expand into the
// conventional `_bucket`/`_sum`/`_count` series with a cumulative
// `le="+Inf"` terminator. Output ordering is fully deterministic —
// families sort by name, series within a family by label string — so the
// wire format is golden-file testable (prom_test.go pins it).

// promSeries is one exposition line before rendering: a family, its
// rendered label block (`{a="b"}` or empty) and the sample lines.
type promSeries struct {
	labels string
	lines  []string
}

type promFamily struct {
	name   string
	kind   string // counter | gauge | histogram
	series []promSeries
}

// WriteProm writes the registry in Prometheus text exposition format.
// A nil registry writes nothing. It renders from the registry's one
// locked copy, so it is safe against concurrent instrument writers.
func WriteProm(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	fams := map[string]*promFamily{}
	add := func(fam, kind, labels string, lines ...string) {
		f, ok := fams[fam+" "+kind]
		if !ok {
			f = &promFamily{name: fam, kind: kind}
			fams[fam+" "+kind] = f
		}
		f.series = append(f.series, promSeries{labels: labels, lines: lines})
	}
	for _, in := range r.instruments() {
		fam, labels := promName(in.name)
		switch in.kind {
		case "counter":
			add(fam, "counter", labels, fam+labels+" "+strconv.FormatInt(in.v, 10))
		case "gauge":
			add(fam, "gauge", labels, fam+labels+" "+strconv.FormatInt(in.v, 10))
			add(fam+"_max", "gauge", labels, fam+"_max"+labels+" "+strconv.FormatInt(in.max, 10))
		case "histogram":
			h := in.hist
			lines := make([]string, 0, len(h.bounds)+3)
			var cum int64
			for i, b := range h.bounds {
				cum += h.counts[i]
				lines = append(lines, fam+"_bucket"+mergeLE(labels, formatPromFloat(b))+" "+strconv.FormatInt(cum, 10))
			}
			lines = append(lines,
				fam+"_bucket"+mergeLE(labels, "+Inf")+" "+strconv.FormatInt(h.count, 10),
				fam+"_sum"+labels+" "+formatPromFloat(h.sum),
				fam+"_count"+labels+" "+strconv.FormatInt(h.count, 10))
			add(fam, "histogram", labels, lines...)
		}
	}

	keys := make([]string, 0, len(fams))
	for k := range fams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := fams[k]
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			for _, l := range s.lines {
				if _, err := io.WriteString(w, l+"\n"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// promName splits a `pkg.metric{label=value,…}` instrument name into a
// sanitized Prometheus family name and a rendered, escaped label block
// (empty when the instrument has no labels).
func promName(raw string) (fam, labels string) {
	name := raw
	if i := strings.IndexByte(raw, '{'); i >= 0 {
		name = raw[:i]
		labels = promLabels(strings.TrimSuffix(raw[i+1:], "}"))
	}
	return sanitizeProm(name), labels
}

// promLabels renders `k=v,k2=v2` as `{k="v",k2="v2"}` with Prometheus
// label-value escaping (backslash, double quote, newline). Label order is
// preserved from the instrument name, which registration keeps stable.
func promLabels(body string) string {
	if body == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range strings.Split(body, ",") {
		if i > 0 {
			b.WriteByte(',')
		}
		k, v, _ := strings.Cut(kv, "=")
		b.WriteString(sanitizeProm(k))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLE injects the `le` bucket label into an existing label block.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return strings.TrimSuffix(labels, "}") + `,le="` + le + `"}`
}

// escapeLabelValue applies the text-format escaping rules for values
// inside double quotes: \ → \\, " → \", newline → \n.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// sanitizeProm maps an instrument name fragment onto the Prometheus
// metric/label charset [a-zA-Z0-9_:]; everything else becomes '_'
// (dots included, so `des.events_fired` → `des_events_fired`).
func sanitizeProm(s string) string {
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatPromFloat renders a float sample the way Prometheus expects:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatPromFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
