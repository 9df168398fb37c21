// Package netsim is the packet-level discrete-event substrate for the
// paper's end-to-end experiments (§4): wired hops with finite drop-tail
// buffers, bursty cross traffic at the legacy Internet bottleneck, and a
// radio-access hop whose HARQ hides all air-interface loss from the
// transport layer. The transport engines in internal/transport run their
// congestion-control algorithms over these paths.
package netsim

import (
	"time"

	"fivegsim/internal/des"
)

// Packet is the unit moved through the simulated network. Transport
// engines use Seq/Len/Ack*; the network layer only looks at Wire.
type Packet struct {
	// Seq is the first payload byte's sequence number (data packets).
	Seq int64
	// Len is the payload length in bytes (0 for pure ACKs).
	Len int
	// AckSeq is the cumulative acknowledgment (next expected byte).
	AckSeq int64
	// SackMark reports the receiver's whole out-of-order map by
	// reference: the number of bytes in the sending connection's log of
	// the ranges its receiver added to the map (internal/transport) when
	// the ACK was sent. An ACK carries a mark only once a byte has been
	// logged, so 0 means the ACK has no SACK option.
	SackMark int64
	// Wire is the on-the-wire size in bytes including headers.
	Wire int
	// SentAt is the origin timestamp (RTT measurement).
	SentAt time.Duration
	// EchoTS echoes the data packet's SentAt back on the ACK.
	EchoTS time.Duration
	// Ack marks a pure acknowledgment travelling the reverse path.
	Ack bool
	// Background marks cross-traffic packets, which leave the path
	// right after the bottleneck.
	Background bool
	// Retransmit marks retransmitted data (diagnostics).
	Retransmit bool
	// pooled marks packets checked out of a PacketPool; only these are
	// recycled on delivery/drop (see PacketPool's ownership rule).
	pooled bool

	// next links the packet into the one list it waits in: a hop's
	// buffer, a hop's delay line or a pool's free list.
	next *Packet
	// key is the packet's delivery event's place in the firing order
	// while it waits in a delay line.
	key des.Key
}

// HeaderBytes is the IP+TCP/UDP header overhead per packet.
const HeaderBytes = 60

// MSS is the maximum segment payload used by the transport engines.
const MSS = 1400

// Receiver consumes packets at a hop or endpoint.
type Receiver interface {
	Receive(p *Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(p *Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(p *Packet) { f(p) }
