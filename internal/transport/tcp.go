// Package transport implements the TCP engine that drives the congestion
// controllers of internal/cc over netsim paths: ACK clocking, SACK-based
// loss recovery, retransmission timeouts, optional pacing (BBR), and the
// receive-side bookkeeping of an iperf3-style sink with the paper's 25 MB
// receive buffer.
package transport

import (
	"sync"
	"time"

	"fivegsim/internal/cc"
	"fivegsim/internal/des"
	"fivegsim/internal/netsim"
)

// RcvBufBytes mirrors the paper's methodology: "We set the receiver's
// buffer size to 25 MB, which is enough to avoid the small initial
// receiving window problem".
const RcvBufBytes = 25 << 20

// CwndSample is one point of the Fig. 8 congestion-window trace.
type CwndSample struct {
	At   time.Duration
	Cwnd int
	// Retransmits is the cumulative retransmission count at this sample.
	Retransmits int64
}

// RateSample is a windowed receiver throughput measurement.
type RateSample struct {
	At  time.Duration
	Bps float64
}

type byteRange struct{ lo, hi int64 }

// Conn is a one-directional (server → UE) TCP connection over a netsim
// path.
type Conn struct {
	sch  *des.Scheduler
	path *netsim.Path
	ctrl cc.Controller

	// Sender state (bytes).
	una     int64 // lowest unacknowledged
	sp      int64 // next new byte to transmit
	maxSent int64 // highest byte ever sent
	limit   int64 // application bytes available (Bulk = unbounded)

	inRecovery   bool
	recoverPoint int64
	retxNext     int64
	sacked       intervalSet // SACK scoreboard above una

	srtt, rttvar, rto time.Duration
	// The retransmission timer is a deadline, rtoAt (0 = disarmed), and
	// the time of the pending check event, rtoCheck (0 = none); see
	// armRTO.
	rtoAt, rtoCheck  time.Duration
	checkRTOFn       func() // c.checkRTO, bound once so scheduling a check allocates nothing
	walkRestartAt    time.Duration
	repairProgressAt time.Duration

	pacing     bool
	pacingBusy bool

	// Receiver state.
	rcvNext int64
	ooo     intervalSet
	unacked int

	// sack logs every range the receiver adds to ooo, so an ACK carries
	// a mark into the log instead of a copy of the map (see sackLog).
	sack sackLog

	// Stats.
	DeliveredBytes int64
	Retransmits    int64
	RTOs           int64
	LossEvents     int64
	acks           int64 // ACKs that advanced the window: calls of ctrl.OnAck
	CwndTrace      []CwndSample
	rxWindowBytes  int64
	rxWindows      []RateSample

	// Done fires once when limit bytes have been acknowledged.
	Done  func(at time.Duration)
	fired bool
}

// minRTO guards the retransmission timer (Linux: 200 ms).
const minRTO = 200 * time.Millisecond

// ackEvery is the receiver's delayed-ACK count: one ACK per two in-order
// segments.
const ackEvery = 2

// Bulk marks an unbounded transfer.
const Bulk = int64(1) << 62

// storage is what a connection grows that no result keeps: the SACK
// log's runs and the ranges of its four interval sets. A closed path's
// connection hands it to the next NewConn through storageCache, each
// slice at length 0 with the capacity it grew to. Nothing reads a slice
// past its length, and a SACK log that starts with spare capacity only
// compacts its dead prefix at other moments, which moves runs without
// changing runs[head:], all that load and trim read. So a connection
// behaves the same on recycled storage as on fresh.
type storage struct {
	runs                          []sackRun
	sacked, ooo, replica, scratch []byteRange
}

var storageCache sync.Pool

// NewConn creates a connection on the path using the named congestion
// controller. limit is the transfer size in bytes (use Bulk for an
// unbounded iperf-style flow). The connection starts from the storage a
// connection of a closed path handed on, when one is cached. When path
// is closed it publishes its counts to the path's registry and hands its
// own storage on.
func NewConn(sch *des.Scheduler, path *netsim.Path, ctrlName string, limit int64) *Conn {
	c := &Conn{
		sch: sch, path: path, ctrl: cc.New(ctrlName), limit: limit,
		rto: time.Second,
	}
	if c.ctrl == nil {
		panic("transport: unknown congestion controller " + ctrlName)
	}
	if s, _ := storageCache.Get().(*storage); s != nil {
		c.adopt(s)
	}
	path.OnClose(c.release)
	c.ctrl = cc.Instrument(c.ctrl, path.Cfg.Obs)
	c.checkRTOFn = c.checkRTO
	c.pacing = c.ctrl.PacingRate() > 0
	path.ToUE = netsim.ReceiverFunc(c.onData)
	path.ToServer = netsim.ReceiverFunc(c.onAck)
	return c
}

// adopt takes s as the connection's storage.
func (c *Conn) adopt(s *storage) {
	c.sack.runs, c.sacked.ranges, c.ooo.ranges = s.runs, s.sacked, s.ooo
	c.sack.replica.ranges, c.sack.scratch.ranges = s.replica, s.scratch
}

// release adds the connection's counts to the path's registry, when it
// has one, as `cc.acks`, `cc.loss_events` and `cc.rto_events`
// `{algo=name}`, and hands the connection's storage to the next
// NewConn, on any goroutine. The connection must not run again.
func (c *Conn) release() {
	if reg := c.path.Cfg.Obs; reg != nil {
		label := "{algo=" + c.ctrl.Name() + "}"
		reg.Counter("cc.acks" + label).Add(c.acks)
		reg.Counter("cc.loss_events" + label).Add(c.LossEvents)
		reg.Counter("cc.rto_events" + label).Add(c.RTOs)
	}
	storageCache.Put(&storage{
		runs: c.sack.runs[:0], sacked: c.sacked.ranges[:0], ooo: c.ooo.ranges[:0],
		replica: c.sack.replica.ranges[:0], scratch: c.sack.scratch.ranges[:0],
	})
}

// Start begins transmission and installs periodic bookkeeping (cwnd trace
// sampling every 50 ms, receiver-throughput windows every 100 ms).
func (c *Conn) Start() {
	var sampleCwnd func()
	sampleCwnd = func() {
		c.CwndTrace = append(c.CwndTrace, CwndSample{At: c.sch.Now(), Cwnd: c.ctrl.Cwnd(), Retransmits: c.Retransmits})
		c.sch.After(50*time.Millisecond, sampleCwnd)
	}
	sampleCwnd()
	var sampleRate func()
	sampleRate = func() {
		c.rxWindows = append(c.rxWindows, RateSample{At: c.sch.Now(), Bps: float64(c.rxWindowBytes*8) / 0.1})
		c.rxWindowBytes = 0
		c.sch.After(100*time.Millisecond, sampleRate)
	}
	c.sch.After(100*time.Millisecond, sampleRate)

	if c.pacing {
		c.paceLoop()
	} else {
		c.trySend()
	}
	c.armRTO()
}

// RxRates returns the 100 ms receiver throughput series.
func (c *Conn) RxRates() []RateSample { return c.rxWindows }

// SRTT returns the smoothed RTT estimate.
func (c *Conn) SRTT() time.Duration { return c.srtt }

// pipe estimates bytes actually in flight (sent, not acked, not SACKed).
func (c *Conn) pipe() int64 { return c.sp - c.una - c.sacked.Total() }

// window returns the effective window in bytes.
func (c *Conn) window() int64 {
	wnd := int64(c.ctrl.Cwnd())
	if wnd > RcvBufBytes {
		wnd = RcvBufBytes
	}
	return wnd
}

// sendSegment transmits one segment starting at seq.
func (c *Conn) sendSegment(seq int64, retx bool) {
	size := int64(netsim.MSS)
	if seq+size > c.limit {
		size = c.limit - seq
	}
	if size <= 0 {
		return
	}
	p := c.path.Pool.Get()
	p.Seq, p.Len, p.Wire = seq, int(size), int(size)+netsim.HeaderBytes
	p.SentAt, p.Retransmit = c.sch.Now(), retx
	c.path.ServerIngress.Receive(p)
	if retx {
		c.Retransmits++
	}
}

// retransmitHoles resends up to budget unSACKed segments below the
// recovery point (the SACK scoreboard walk). If the walk has reached the
// recovery point but holes remain (a retransmission was lost again during
// an ongoing overflow episode), the walk restarts after an RTT without
// cumulative-ACK progress — the role DSACK/RACK play in production stacks.
// It returns the number of segments actually retransmitted.
func (c *Conn) retransmitHoles(budget int) int {
	if c.retxNext < c.una {
		c.retxNext = c.una
	}
	if c.retxNext >= c.recoverPoint && c.una < c.recoverPoint {
		rtt := c.srtt
		if rtt < 10*time.Millisecond {
			rtt = 10 * time.Millisecond
		}
		now := c.sch.Now()
		if now-c.walkRestartAt > rtt && now-c.repairProgressAt > rtt {
			c.retxNext = c.una
			c.walkRestartAt = now
		}
	}
	sent := 0
	for sent < budget && c.retxNext < c.recoverPoint {
		end := c.retxNext + int64(netsim.MSS)
		if end > c.recoverPoint {
			end = c.recoverPoint
		}
		if !c.sacked.Covers(c.retxNext, end) {
			c.sendSegment(c.retxNext, true)
			sent++
		} else if r, ok := c.sacked.NextAbove(c.retxNext); ok && r.lo <= c.retxNext && r.hi > end {
			// Skip the whole SACKed run instead of stepping MSS by MSS.
			end = r.hi - (r.hi-c.retxNext)%int64(netsim.MSS)
			if end <= c.retxNext {
				end = c.retxNext + int64(netsim.MSS)
			}
		}
		c.retxNext = end
	}
	return sent
}

// trySend transmits new data as window and application data allow.
func (c *Conn) trySend() {
	for c.sendNew() {
	}
}

// sendNew transmits the next new-data segment if the window and the
// application data allow one, and reports whether it did.
func (c *Conn) sendNew() bool {
	if c.pipe() >= c.window() || c.sp >= c.limit {
		return false
	}
	c.sendSegment(c.sp, false)
	c.sp += int64(netsim.MSS)
	if c.sp > c.limit {
		c.sp = c.limit
	}
	if c.sp > c.maxSent {
		c.maxSent = c.sp
	}
	return true
}

// paceLoop emits one segment per pacing interval while the window allows.
func (c *Conn) paceLoop() {
	if c.pacingBusy {
		return
	}
	c.pacingBusy = true
	var tick func()
	tick = func() {
		rate := c.ctrl.PacingRate()
		if rate <= 0 {
			rate = 1e6
		}
		// Hole repairs take priority over new data and share the pacing
		// budget, so recovery does not burst into full queues.
		sent := c.inRecovery && c.retransmitHoles(1) > 0 || c.sendNew()
		interval := time.Duration(float64((netsim.MSS+netsim.HeaderBytes)*8) / rate * float64(time.Second))
		if !sent {
			// Window-blocked: poll at a fine grain so the ACK clock
			// restarts us promptly.
			interval = 500 * time.Microsecond
		}
		c.sch.After(interval, tick)
	}
	tick()
}

// onData runs at the UE for every arriving data packet.
func (c *Conn) onData(p *netsim.Packet) {
	if p.Ack {
		return
	}
	inOrder := c.receive(p.Seq, p.Seq+int64(p.Len))

	// ACK policy: every ackEvery in-order segments, immediately on
	// out-of-order arrivals (to report SACK blocks fast).
	c.unacked++
	if !inOrder || c.ooo.Len() > 0 || c.unacked >= ackEvery {
		c.unacked = 0
		echo := p.SentAt
		if p.Retransmit {
			echo = 0 // Karn's rule: no RTT samples from retransmits
		}
		ack := c.path.Pool.Get()
		ack.Ack, ack.AckSeq = true, c.rcvNext
		ack.Wire, ack.SentAt, ack.EchoTS = netsim.HeaderBytes, c.sch.Now(), echo
		// Report the full out-of-order map. Real TCP fits only 3-4 SACK
		// blocks per ACK but accumulates complete coverage across the ACK
		// stream; carrying the full (coalesced, drop-tail losses are
		// contiguous runs) map per ACK models that endpoint behaviour
		// without simulating option-space packing. The ACK carries the map
		// as a mark into the SACK log; with nothing out of order SackMark
		// stays 0: no SACK option.
		if c.ooo.Len() > 0 {
			ack.SackMark = c.sack.mark()
		}
		c.path.UEIngress.Receive(ack)
	}
}

// receive updates the receiver's state for the arriving segment
// [seq, end) and reports whether it advanced the cumulative point.
func (c *Conn) receive(seq, end int64) (inOrder bool) {
	if seq <= c.rcvNext {
		if end > c.rcvNext {
			c.rcvNext = end
			inOrder = true
			c.rxWindowBytes += end - seq
		}
		// Pull any out-of-order ranges now contiguous.
		if r, ok := c.ooo.NextAbove(c.rcvNext); ok && r.lo <= c.rcvNext {
			c.rcvNext = r.hi
		}
		c.ooo.TrimBelow(c.rcvNext)
	} else {
		c.ooo.Add(seq, end)
		c.sack.add(seq, end)
		c.rxWindowBytes += end - seq
	}
	return inOrder
}

// onAck runs at the server for every returning ACK.
func (c *Conn) onAck(p *netsim.Packet) {
	if !p.Ack {
		return
	}
	now := c.sch.Now()
	if p.EchoTS > 0 {
		c.updateRTT(now - p.EchoTS)
	}
	una := c.una
	c.acknowledge(p.AckSeq, p.SackMark)
	if c.una > una {
		acked := int(c.una - una)
		if c.sp < c.una {
			c.sp = c.una
		}
		c.DeliveredBytes = c.una
		c.repairProgressAt = now
		rtt := c.srtt
		if rtt == 0 {
			rtt = 40 * time.Millisecond
		}
		if c.inRecovery && c.una >= c.recoverPoint {
			c.inRecovery = false
		}
		c.acks++
		c.ctrl.OnAck(now, acked, rtt, int(c.pipe()))
		c.armRTO()
		if !c.fired && c.una >= c.limit {
			c.fired = true
			if c.Done != nil {
				c.Done(now)
			}
		}
	}

	// Loss detection: SACK reporting ≥3 segments above a hole
	// (RFC 6675-style). Raw duplicate ACKs are not used — duplicate
	// arrivals of spuriously retransmitted data would trigger false
	// recoveries.
	if !c.inRecovery && c.una < c.maxSent &&
		c.sacked.Total() > 3*netsim.MSS {
		c.inRecovery = true
		c.LossEvents++
		c.recoverPoint = c.maxSent
		c.retxNext = c.una
		c.ctrl.OnLoss(now, int(c.pipe()))
		if !c.pacing {
			c.retransmitHoles(2)
		}
	} else if c.inRecovery && !c.pacing {
		c.retransmitHoles(2)
	}

	if !c.pacing {
		c.trySend()
	}
}

// acknowledge applies an ACK's SACK option and cumulative point to the
// sender: the scoreboard, una and the SACK log.
func (c *Conn) acknowledge(ackSeq, mark int64) {
	if mark != 0 {
		// The ACK reports the receiver's complete out-of-order map, so the
		// scoreboard is replaced, not merged. The map lies above ackSeq,
		// and the scoreboard only above una, so the loaded map is clipped
		// at the larger of the two: the una this ACK leaves behind.
		c.sack.load(&c.sacked, mark, max(ackSeq, c.una))
	}
	if ackSeq > c.una {
		c.una = ackSeq
		if mark == 0 { // a loaded map is already clipped there
			c.sacked.TrimBelow(c.una)
		}
		c.sack.trim(c.una)
	}
}

// updateRTT applies the Jacobson/Karels estimator.
func (c *Conn) updateRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		delta := c.srtt - sample
		if delta < 0 {
			delta = -delta
		}
		c.rttvar = (3*c.rttvar + delta) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
}

// armRTO restarts the retransmission timer: the deadline becomes now +
// rto, or 0 (disarmed) once every byte is acknowledged. The scheduler
// cannot cancel an event, so a check is scheduled only when none is
// pending or the deadline moved before the pending one. That happens
// after RTO backoff, when the next ACK shrinks rto. A deadline that moved
// later is found by the pending check, which re-schedules itself.
func (c *Conn) armRTO() {
	if c.una >= c.limit {
		c.rtoAt = 0
		return
	}
	c.rtoAt = c.sch.Now() + c.rto
	if c.rtoCheck == 0 || c.rtoAt < c.rtoCheck {
		c.rtoCheck = c.rtoAt
		c.sch.At(c.rtoAt, c.checkRTOFn)
	}
}

// checkRTO runs at a scheduled check time. A check superseded by an
// earlier one returns. The current check follows a deadline that moved
// later and fires the timeout at one that is due, so onRTO runs at
// exactly rtoAt.
func (c *Conn) checkRTO() {
	now := c.sch.Now()
	if now != c.rtoCheck {
		return
	}
	c.rtoCheck = 0
	switch {
	case c.rtoAt == 0: // disarmed: every byte is acknowledged
	case c.rtoAt > now:
		c.rtoCheck = c.rtoAt
		c.sch.At(c.rtoAt, c.checkRTOFn)
	default:
		c.onRTO()
	}
}

func (c *Conn) onRTO() {
	if c.una >= c.maxSent || c.una >= c.limit {
		c.armRTO()
		return
	}
	c.RTOs++
	c.ctrl.OnRTO(c.sch.Now())
	c.inRecovery = false
	c.sacked.Clear() // conservative: forget SACK state
	c.sp = c.una     // go-back-N
	c.sendSegment(c.una, true)
	c.rto *= 2
	if c.rto > 60*time.Second {
		c.rto = 60 * time.Second
	}
	if !c.pacing {
		c.trySend()
	}
	c.armRTO()
}
