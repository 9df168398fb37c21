package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// promTestRegistry builds the fixture registry behind the golden file:
// it exercises every translation rule — dot-to-underscore family names,
// multi-series families and their label-sorted order, label-value
// escaping (backslash, double quote, newline), the gauge high-water
// `_max` companion family, and the histogram `_bucket`/`_sum`/`_count`
// expansion with the cumulative `+Inf` terminator.
func promTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("des.events_fired").Add(42)
	r.Counter("netsim.pkt_dropped{hop=access}").Add(3)
	r.Counter("netsim.pkt_dropped{hop=bottleneck}").Add(7)
	r.Counter(`esc.metric{path=a"b\c}`).Add(1)
	r.Counter("cell.note{msg=line1\nline2}").Add(5)
	g := r.Gauge("des.queue_depth")
	g.Set(9)
	g.Set(3)
	h := r.Histogram("lat.us", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	return r
}

// TestWritePromGolden pins the exposition byte-for-byte. Regenerate the
// golden after an intentional format change with:
//
//	FIVEGSIM_UPDATE_GOLDEN=1 go test ./internal/obs -run WritePromGolden
func TestWritePromGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, promTestRegistry()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	golden := filepath.Join("testdata", "prom.golden")
	if os.Getenv("FIVEGSIM_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("exposition differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestWritePromDeterministic: two expositions of the same registry are
// identical (map iteration must not leak into the output order).
func TestWritePromDeterministic(t *testing.T) {
	r := promTestRegistry()
	var a, b strings.Builder
	WriteProm(&a, r)
	WriteProm(&b, r)
	if a.String() != b.String() {
		t.Fatal("two expositions of the same registry differ")
	}
}

func TestWritePromNilRegistry(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %q", b.String())
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := []struct {
		raw         string
		hist        bool
		fam, labels string
	}{
		{"des.events_fired", false, "des_events_fired", ""},
		{"netsim.pkt_dropped{hop=bottleneck}", false, "netsim_pkt_dropped", `{hop="bottleneck"}`},
		{"a.b{x=1,y=2}", false, "a_b", `{x="1",y="2"}`},
		{"9lives", false, "_9lives", ""},
		{"odd-name{k-1=v 1}", false, "odd_name", `{k_1="v 1"}`},
		{"lat.us{le=x}", false, "lat_us", `{le="x"}`},
		{"lat.us{le=x}", true, "lat_us", `{exported_le="x"}`},
	}
	for _, tc := range cases {
		fam, labels := promName(tc.raw, tc.hist)
		if fam != tc.fam || labels != tc.labels {
			t.Errorf("promName(%q, %v) = %q, %q; want %q, %q", tc.raw, tc.hist, fam, labels, tc.fam, tc.labels)
		}
	}
	r := NewRegistry()
	r.Histogram("lat.us{le=x}", []float64{1}).Observe(0.5)
	var b strings.Builder
	if err := WriteProm(&b, r); err != nil {
		t.Fatal(err)
	}
	if want := `lat_us_bucket{exported_le="x",le="1"} 1`; !strings.Contains(b.String(), want+"\n") {
		t.Errorf("a histogram with its own le label renders\n%s, want the line %s", b.String(), want)
	}
}

func TestFormatPromFloat(t *testing.T) {
	h := newHistogram([]float64{0.5})
	h.Observe(0.25)
	var b strings.Builder
	r := NewRegistry()
	r.hists["f.v"] = h
	if err := WriteProm(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`f_v_bucket{le="0.5"} 1`, `f_v_bucket{le="+Inf"} 1`, "f_v_sum 0.25", "f_v_count 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
