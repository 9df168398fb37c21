package netsim

// PacketPool recycles Packet structs for the traffic a path generates
// itself (the UDP load generators and the cross-traffic pump), so the
// per-packet steady state allocates nothing. The pool is owned by a
// single scheduler's event loop and is deliberately not thread-safe — a
// sync.Pool would buy nothing here and cost an atomic per packet.
//
// Ownership rule: a packet obtained from Get is released back exactly
// once, by whoever terminates it — the delivery wrappers in NewPath
// release on final delivery, the hops release on drop (after OnDrop
// observers ran) and on HARQ residual loss. Packets built with plain
// &Packet{} (the transport engines own their retransmission state) are
// ignored by Release, so pooled and unpooled traffic mix freely on one
// path.
type PacketPool struct {
	free []*Packet

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
	n := len(pl.free)
	if n == 0 {
		pl.News++
		return &Packet{pooled: true}
	}
	p := pl.free[n-1]
	pl.free[n-1] = nil
	pl.free = pl.free[:n-1]
	*p = Packet{Sack: p.Sack[:0], pooled: true}
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
	pl.free = append(pl.free, p)
}

// pktRing is a growable FIFO ring buffer of packets: the hop queues.
// Unlike the append/reslice idiom it never leaks the consumed prefix and
// reaches a zero-allocation steady state once grown to the high-water
// mark.
type pktRing struct {
	buf  []*Packet
	head int
	n    int
}

func (r *pktRing) len() int { return r.n }

func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
}

func (r *pktRing) pop() *Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p
}

func (r *pktRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]*Packet, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}
