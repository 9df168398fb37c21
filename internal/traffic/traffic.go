// Package traffic generates the workload traces the energy study replays
// (§6.3: "short web page browsing, frame-by-frame UHD video telephony and
// saturated file transfer") and the saturated sessions of Fig. 22.
package traffic

import (
	"time"

	"fivegsim/internal/energy"
	"fivegsim/internal/rng"
)

// Bin is the capture granularity of the replayed Wireshark traces.
const Bin = 100 * time.Millisecond

// Web returns the short-burst browsing trace: ten browsing sessions, each
// a Fig. 23-style run of five page loads 3 s apart followed by reading
// silence long enough for the 4G radio (but not the 5G NSA radio, with
// its doubled tail) to reach RRC_IDLE.
func Web(seed int64) energy.Trace {
	r := rng.New(seed).Stream("traffic.web")
	const (
		sessions       = 10
		loadsPerSess   = 5
		loadSpacing    = 3 * time.Second
		sessionSpacing = 30 * time.Second
	)
	bins := int(time.Duration(sessions)*sessionSpacing/Bin) + 1
	t := energy.Trace{BinDur: Bin, Bytes: make([]int64, bins)}
	for s := 0; s < sessions; s++ {
		base := time.Duration(s) * sessionSpacing
		for l := 0; l < loadsPerSess; l++ {
			start := int((base + time.Duration(l)*loadSpacing) / Bin)
			pageBytes := int64(rng.Uniform(r, 2.0, 3.5) * (1 << 20))
			over := 3 + r.Intn(3) // the load spans 300–500 ms
			for k := 0; k < over && start+k < bins; k++ {
				t.Bytes[start+k] += pageBytes / int64(over)
			}
		}
	}
	return t
}

// Video returns the UHD frame-by-frame telephony trace: ≈112 Mb/s for two
// minutes with GOP-scale variation (the 5.7K-class stream of §5.2,
// recorded over 5G so its instantaneous rate regularly tops the 100 Mb/s
// dynamic-switching threshold).
func Video(seed int64) energy.Trace {
	r := rng.New(seed).Stream("traffic.video")
	bins := int((120 * time.Second) / Bin)
	t := energy.Trace{BinDur: Bin, Bytes: make([]int64, bins)}
	rate := 112e6
	for i := range t.Bytes {
		if i%10 == 0 {
			rate = rng.ClampedNormal(r, 112e6, 18e6, 60e6, 165e6)
		}
		t.Bytes[i] = int64(rate / 8 * Bin.Seconds())
	}
	return t
}

// File returns the saturated bulk-download trace: ≈2.85 GB offered as
// fast as the sender can push (the radio's drain rate shapes the replay).
func File(seed int64) energy.Trace {
	total := int64(2850) << 20
	perBin := int64(50) << 20
	bins := int(total/perBin) + 1
	t := energy.Trace{BinDur: Bin, Bytes: make([]int64, bins)}
	for i := range t.Bytes {
		if total >= perBin {
			t.Bytes[i] = perBin
			total -= perBin
		} else {
			t.Bytes[i] = total
			total = 0
		}
	}
	return t
}
