// Package video implements 360TEL, the paper's §5.2 UHD panoramic
// video-telephony system: an Insta360-style camera producing 30 fps
// panoramic frames, the H.264 hardware codec pipeline with the measured
// stage latencies, RTMP-style uplink streaming over the simulated radio,
// and the stopwatch frame-delay methodology of Fig. 20.
package video

import (
	"time"

	"fivegsim/internal/radio"
	"fivegsim/internal/rng"
)

// Resolution of the panoramic capture.
type Resolution int

const (
	// R720P through R57K are the four Fig. 18 operating points.
	R720P Resolution = iota
	R1080P
	R4K
	R57K
)

var resNames = [...]string{"720P", "1080P", "4K", "5.7K"}

// String returns the marketing name.
func (r Resolution) String() string {
	if int(r) < len(resNames) {
		return resNames[r]
	}
	return "?"
}

// Resolutions lists the Fig. 18 sweep.
func Resolutions() []Resolution { return []Resolution{R720P, R1080P, R4K, R57K} }

// bitrateProfile returns the encoder output in bits/s for a scene type.
// Dynamic panoramas encode poorly: the paper cites 4K telephony producing
// 35–68 Mb/s with unpredictable fluctuations, and 5.7K overshooting the
// 100 Mb/s 5G uplink budget in dynamic scenes.
func bitrateProfile(res Resolution, dynamic bool) (mean, std float64) {
	switch res {
	case R720P:
		if dynamic {
			return 10e6, 2e6
		}
		return 8e6, 1e6
	case R1080P:
		if dynamic {
			return 20e6, 4e6
		}
		return 16e6, 2e6
	case R4K:
		if dynamic {
			return 52e6, 12e6
		}
		return 38e6, 5e6
	default: // 5.7K
		if dynamic {
			return 86e6, 22e6
		}
		return 74e6, 5e6
	}
}

// Pipeline stage latencies measured in §5.2 with the stopwatch method:
// capture + patch splice + preview rendering ≈440 ms, H.264 hardware
// encode ≈160 ms, decode ≈50 ms — ≈650 ms of pure processing per frame.
const (
	CaptureSpliceRender = 440 * time.Millisecond
	EncodeLatency       = 160 * time.Millisecond
	DecodeLatency       = 50 * time.Millisecond
	// FPS is the camera frame rate.
	FPS = 30
	// PlayoutBuffer is the RTMP ingest/pull relay plus receiver jitter
	// buffer that every delivered frame traverses.
	PlayoutBuffer = 250 * time.Millisecond
	// FreezeBacklog: an uplink backlog beyond this stalls the receiver's
	// playout (counted once per congestion episode, with a minimum
	// inter-freeze spacing so sustained overload reads as distinct stalls
	// the way a viewer would count them).
	FreezeBacklog = 600 * time.Millisecond
	freezeSpacing = 2500 * time.Millisecond
	// RealTimeBudget is the 460 ms end-to-end requirement for interactive
	// telephony the paper cites [88].
	RealTimeBudget = 460 * time.Millisecond
)

// ulCapacity returns the usable uplink goodput for a technology (§4.1
// daytime baselines: 100 Mb/s effective for 5G video after protocol
// overhead, ≈45 Mb/s for 4G).
func ulCapacity(t radio.Tech) float64 {
	if t == radio.NR {
		return 100e6
	}
	return 42e6
}

// Frame is one transmitted video frame.
type Frame struct {
	Bytes   int
	SentAt  time.Duration // capture timestamp
	Delay   time.Duration // end-to-end stopwatch delay
	Dropped bool          // dropped at the sender queue (congestion)
}

// SessionResult summarizes one 360TEL call.
type SessionResult struct {
	Frames   []Frame
	Freezes  int
	Duration time.Duration
}

// ReceivedBps returns the delivered (non-dropped) throughput.
func (s SessionResult) ReceivedBps() float64 {
	var bytes int64
	for _, f := range s.Frames {
		if !f.Dropped {
			bytes += int64(f.Bytes)
		}
	}
	return float64(bytes*8) / s.Duration.Seconds()
}

// MeanFrameDelay returns the average stopwatch delay of delivered frames.
func (s SessionResult) MeanFrameDelay() time.Duration {
	var sum time.Duration
	n := 0
	for _, f := range s.Frames {
		if !f.Dropped {
			sum += f.Delay
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// ThroughputSeries returns the received throughput in windows (Fig. 19).
func (s SessionResult) ThroughputSeries(window time.Duration) []float64 {
	nw := int(s.Duration/window) + 1
	buckets := make([]float64, nw)
	for _, f := range s.Frames {
		if f.Dropped {
			continue
		}
		arrive := f.SentAt + f.Delay
		idx := int(arrive / window)
		if idx >= 0 && idx < nw {
			buckets[idx] += float64(f.Bytes) * 8
		}
	}
	for i := range buckets {
		buckets[i] /= window.Seconds()
	}
	return buckets
}

// Run simulates one 360TEL session: frames are produced at 30 fps with a
// scene-dependent bitrate process, pass through the codec pipeline, queue
// at the uplink (RTMP over the radio), and are measured with the
// stopwatch method at the receiver. The sender drops frames when its
// uplink queue exceeds two seconds of backlog (RTMP's behaviour under
// congestion), which the receiver experiences as freezes.
func Run(res Resolution, tech radio.Tech, dynamic bool, duration time.Duration, seed int64) SessionResult {
	r := rng.New(seed).Stream("video.session")
	mean, std := bitrateProfile(res, dynamic)
	cap := ulCapacity(tech)
	frameInterval := time.Second / FPS

	out := SessionResult{Duration: duration}

	// Uplink queue state: the time at which the link frees up.
	var linkFreeAt time.Duration
	// Network one-way latency (RTMP server in the same city).
	oneWay := 11 * time.Millisecond
	if tech == radio.LTE {
		oneWay = 22 * time.Millisecond
	}
	inCongestion := false
	lastFreezeAt := -freezeSpacing

	// The bitrate process: GOP-scale (1 s) rate states with per-frame
	// variation; dynamic scenes occasionally spike far above the mean.
	gopRate := mean
	burstLeft := 0 // remaining GOPs of an ongoing view-change burst
	for now, idx := time.Duration(0), 0; now < duration; now, idx = now+frameInterval, idx+1 {
		if idx%FPS == 0 {
			gopRate = rng.ClampedNormal(r, mean, std, mean/3, mean+3.5*std)
			if dynamic {
				if burstLeft == 0 && r.Float64() < 0.2 {
					burstLeft = 1 + r.Intn(3) // view changes last 1–3 s
				}
				if burstLeft > 0 {
					burstLeft--
					gopRate = mean + rng.Uniform(r, 2.4, 3.6)*std
				}
			}
		}
		frameBits := rng.ClampedNormal(r, gopRate/FPS, gopRate/FPS/6, gopRate/FPS/2, gopRate/FPS*2)
		f := Frame{Bytes: int(frameBits / 8), SentAt: now}

		// Encoder output becomes available after capture+splice+encode.
		ready := now + CaptureSpliceRender + EncodeLatency
		if linkFreeAt < ready {
			linkFreeAt = ready
		}
		// Sender-side congestion control: skip the frame once the uplink
		// backlog exceeds the encoder's frame-skip threshold (the bounded
		// RTMP send queue), which lets the backlog drain after a burst.
		if backlog := linkFreeAt - ready; backlog > 800*time.Millisecond {
			f.Dropped = true
			out.Frames = append(out.Frames, f)
			if !inCongestion && now-lastFreezeAt > freezeSpacing {
				out.Freezes++
				inCongestion = true
				lastFreezeAt = now
			}
			continue
		}
		tx := time.Duration(frameBits / cap * float64(time.Second))
		linkFreeAt += tx
		arrival := linkFreeAt + oneWay + DecodeLatency + PlayoutBuffer
		f.Delay = arrival - now
		out.Frames = append(out.Frames, f)

		// Freeze accounting: one freeze per congestion episode, detected
		// when the uplink backlog first exceeds the playout slack.
		if backlog := linkFreeAt - ready; backlog > FreezeBacklog {
			if !inCongestion && now-lastFreezeAt > freezeSpacing {
				out.Freezes++
				inCongestion = true
				lastFreezeAt = now
			}
		} else if backlog < FreezeBacklog/2 {
			inCongestion = false
		}
	}
	return out
}

// Fig18Row is one bar group of Fig. 18.
type Fig18Row struct {
	Res      Resolution
	Tech     radio.Tech
	Dynamic  bool
	Received float64 // bits/s
}

// RunFig18 sweeps resolution × {static, dynamic} × {4G, 5G}.
func RunFig18(duration time.Duration, seed int64) []Fig18Row {
	var out []Fig18Row
	for _, tech := range []radio.Tech{radio.LTE, radio.NR} {
		for _, res := range Resolutions() {
			for _, dyn := range []bool{false, true} {
				s := Run(res, tech, dyn, duration, seed)
				out = append(out, Fig18Row{Res: res, Tech: tech, Dynamic: dyn, Received: s.ReceivedBps()})
			}
		}
	}
	return out
}

// ProcessingLatency returns the fixed pipeline cost per frame (§5.2:
// ≈650 ms, ≈10× the network's share).
func ProcessingLatency() time.Duration {
	return CaptureSpliceRender + EncodeLatency + DecodeLatency
}
