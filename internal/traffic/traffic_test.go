package traffic

import (
	"testing"
	"time"

	"fivegsim/internal/energy"
)

func TestWebTraceShape(t *testing.T) {
	tr := Web(42)
	if tr.Duration() < 250*time.Second || tr.Duration() > 330*time.Second {
		t.Fatalf("web trace duration = %v", tr.Duration())
	}
	// 10 sessions × 5 pages of 2–3.5 MB.
	total := tr.TotalBytes()
	if total < 80<<20 || total > 200<<20 {
		t.Fatalf("web trace bytes = %d MB", total>>20)
	}
	// Bursty: most bins are empty.
	empty := 0
	for _, b := range tr.Bytes {
		if b == 0 {
			empty++
		}
	}
	if frac := float64(empty) / float64(len(tr.Bytes)); frac < 0.7 {
		t.Fatalf("web trace not bursty: %.0f%% empty bins", 100*frac)
	}
}

func TestVideoTraceShape(t *testing.T) {
	tr := Video(42)
	rate := float64(tr.TotalBytes()*8) / tr.Duration().Seconds()
	if rate < 95e6 || rate > 130e6 {
		t.Fatalf("video trace mean rate = %.0f Mb/s, want ≈112", rate/1e6)
	}
	// Some bins above and some below the 100 Mb/s switching threshold.
	above, below := 0, 0
	for i := range tr.Bytes {
		if tr.BinRate(i) > 100e6 {
			above++
		} else {
			below++
		}
	}
	if above == 0 || below == 0 {
		t.Fatalf("video bins must straddle the switching threshold (above=%d below=%d)", above, below)
	}
}

func TestFileTraceShape(t *testing.T) {
	tr := File(42)
	if got := tr.TotalBytes(); got != int64(2850)<<20 {
		t.Fatalf("file bytes = %d", got)
	}
}

func TestTracesDeterministic(t *testing.T) {
	a, b := Web(9), Web(9)
	for i := range a.Bytes {
		if a.Bytes[i] != b.Bytes[i] {
			t.Fatal("web trace not deterministic")
		}
	}
	if Web(9).TotalBytes() == Web(10).TotalBytes() {
		t.Fatal("different seeds should differ")
	}
	var _ energy.Trace = a
}
