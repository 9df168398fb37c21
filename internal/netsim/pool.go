package netsim

// PacketPool recycles Packet structs for every packet a path carries:
// TCP segments and ACKs, the UDP load generators and the cross-traffic
// pump, so the per-packet steady state allocates nothing. The pool is
// owned by a single scheduler's event loop and is deliberately not
// thread-safe — a sync.Pool would buy nothing here and cost an atomic
// per packet.
//
// Ownership rule: a packet obtained from Get is released back exactly
// once, by whoever terminates it — the delivery wrappers in NewPath
// release on final delivery, after the endpoint's callback returns, the
// hops release on drop (after OnDrop observers ran) and on HARQ residual
// loss. Release ignores packets built with plain &Packet{} (as in tests),
// so pooled and unpooled traffic mix freely on one path. Get hands out a
// fully zeroed packet.
//
// The free list is a stack linked through Packet.next, so the pool
// holds no storage besides the packets themselves.
type PacketPool struct {
	free *Packet

	// Gets and News count checkouts and fresh allocations (diagnostic;
	// Gets − News is the number of reuses).
	Gets int64
	News int64
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// Get returns a zeroed pool-owned packet. Nil-safe: a nil pool
// degrades to plain allocation.
func (pl *PacketPool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	pl.Gets++
	p := pl.free
	if p == nil {
		pl.News++
		return &Packet{pooled: true}
	}
	pl.free = p.next
	*p = Packet{pooled: true}
	return p
}

// Release returns a pool-owned packet to the free list. Packets not
// checked out of a pool (pooled == false) and double releases are
// no-ops, as is a nil pool or packet.
func (pl *PacketPool) Release(p *Packet) {
	if pl == nil || p == nil || !p.pooled {
		return
	}
	p.pooled = false
	p.next = pl.free
	pl.free = p
}
