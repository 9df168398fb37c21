package obs

import (
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

var (
	promMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe    = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// FuzzPromExposition renders one counter, gauge or histogram named
// base{key=value} from fuzzed strings and checks that the exposition is
// valid text format 0.0.4: every line is a TYPE line or a sample line,
// metric and label names are in their charsets, the label value
// unescapes to the raw value, no sample line repeats a label name (a
// histogram's own `le` label must not collide with its buckets'), and
// each family has exactly one TYPE line that precedes its samples. Names the registry syntax cannot carry are
// skipped: '{', '}', ',' or '=' in base or key, ',' or '}' in value, and
// invalid UTF-8.
func FuzzPromExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, base, key, value string) {
		if strings.ContainsAny(base+key, "{},=") || strings.ContainsAny(value, ",}") ||
			!utf8.ValidString(base) || !utf8.ValidString(key) || !utf8.ValidString(value) {
			t.Skip()
		}
		r := NewRegistry()
		name := base + "{" + key + "=" + value + "}"
		switch kind % 3 {
		case 0:
			r.Counter(name).Add(1)
		case 1:
			r.Gauge(name).Set(2)
		default:
			r.Histogram(name, []float64{1}).Observe(0.5)
		}
		var b strings.Builder
		if err := WriteProm(&b, r); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		types := map[string]int{}
		var fam, famKind string
		for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
			if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
				fam, famKind, _ = strings.Cut(typ, " ")
				if !promMetricName.MatchString(fam) || (famKind != "counter" && famKind != "gauge" && famKind != "histogram") {
					t.Fatalf("bad TYPE line %q in\n%s", line, out)
				}
				types[fam]++
				continue
			}
			metric, labels, err := parsePromSample(line)
			if err != nil {
				t.Fatalf("line %q: %v in\n%s", line, err, out)
			}
			if !promMetricName.MatchString(metric) {
				t.Fatalf("metric name %q outside [a-zA-Z_:][a-zA-Z0-9_:]* in\n%s", metric, out)
			}
			if suffix, ok := strings.CutPrefix(metric, fam); fam == "" || !ok ||
				(suffix != "" && !(famKind == "histogram" && (suffix == "_bucket" || suffix == "_sum" || suffix == "_count"))) {
				t.Fatalf("sample %q is not in the family %q of the TYPE line before it in\n%s", metric, fam, out)
			}
			seen := map[string]bool{}
			for _, l := range labels {
				if !promLabelRe.MatchString(l[0]) {
					t.Fatalf("label name %q outside [a-zA-Z_][a-zA-Z0-9_]* in\n%s", l[0], out)
				}
				if seen[l[0]] {
					t.Fatalf("sample %q repeats the label %s in\n%s", line, l[0], out)
				}
				seen[l[0]] = true
				bucketLE := famKind == "histogram" && metric == fam+"_bucket" && l[0] == "le"
				if !bucketLE && l[1] != value {
					t.Fatalf("label %s unescapes to %q, want %q in\n%s", l[0], l[1], value, out)
				}
			}
		}
		for name, n := range types {
			if n != 1 {
				t.Fatalf("family %s has %d TYPE lines in\n%s", name, n, out)
			}
		}
	})
}

// parsePromSample splits a text-format 0.0.4 sample line, without a
// timestamp, into its metric name and its labels as (name, unescaped
// value) pairs. It fails for a line of any other shape.
func parsePromSample(line string) (metric string, labels [][2]string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, errors.New("no value")
	}
	metric, rest := line[:i], line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return "", nil, errors.New(`label without ="`)
			}
			name := rest[:eq]
			rest = rest[eq+2:]
			var v strings.Builder
			for {
				if rest == "" {
					return "", nil, errors.New("unterminated label value")
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' {
					if rest == "" {
						return "", nil, errors.New("dangling backslash")
					}
					switch rest[0] {
					case '\\', '"':
						v.WriteByte(rest[0])
					case 'n':
						v.WriteByte('\n')
					default:
						return "", nil, errors.New("unknown escape")
					}
					rest = rest[1:]
					continue
				}
				v.WriteByte(c)
			}
			labels = append(labels, [2]string{name, v.String()})
			if next, ok := strings.CutPrefix(rest, ","); ok {
				rest = next
				continue
			}
			var ok bool
			if rest, ok = strings.CutPrefix(rest, "}"); !ok {
				return "", nil, errors.New("label not followed by , or }")
			}
			break
		}
	}
	value, ok := strings.CutPrefix(rest, " ")
	if !ok {
		return "", nil, errors.New("no space before the value")
	}
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return "", nil, err
	}
	return metric, labels, nil
}
