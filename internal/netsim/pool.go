package netsim

import "sync"

// PacketPool recycles Packet structs for every packet a path carries:
// TCP segments and ACKs, the UDP load generators and the cross-traffic
// pump, so the per-packet steady state allocates nothing. The pool is
// owned by a single scheduler's event loop and is deliberately not
// thread-safe — a sync.Pool would buy nothing per packet and cost an
// atomic each time.
//
// Ownership rule: a packet obtained from Get is released back exactly
// once, by whoever terminates it — the delivery wrappers in NewPath
// release on final delivery, after the endpoint's callback returns, the
// hops release on drop (after OnDrop observers ran) and on HARQ residual
// loss. Release ignores packets built with plain &Packet{} (as in tests),
// so pooled and unpooled traffic mix freely on one path. Get hands out a
// fully zeroed packet.
//
// The free list is a stack linked through Packet.next. When it is empty,
// Get carves the next packet from a slab, a fixed array of packets, so a
// path's packets cost one allocation per slabPackets of them. A path
// that is done hands its slabs on (Path.Close): they wait in slabCache,
// shared by every goroutine, for the next pool on any goroutine to carve
// from, so a run of paths allocates packets only past the largest peak in
// flight so far. A slab moves between goroutines only whole, through
// slabCache, and the garbage collector empties the cache of slabs no path
// took.
type PacketPool struct {
	free   *Packet
	slabs  []*slab // every slab carved from; the last one partly
	carved int     // packets carved from the last slab

	// Gets counts checkouts and News the packets carved from a slab,
	// fresh or handed on (diagnostic; Gets − News is the number of
	// reuses).
	Gets int64
	News int64
}

// slabPackets is the number of packets in a slab: 22.5 KB of 88-byte
// packets, which a packet-level path carves in the thousands.
const slabPackets = 256

type slab [slabPackets]Packet

// slabCache holds the slabs of closed paths.
var slabCache sync.Pool

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
		p = pl.carve()
	} else {
		pl.free = p.next
	}
	*p = Packet{pooled: true}
	return p
}

// carve returns the next packet of the last slab, first taking a slab
// from slabCache, or a fresh one, when the last is used up.
func (pl *PacketPool) carve() *Packet {
	pl.News++
	if len(pl.slabs) == 0 || pl.carved == slabPackets {
		s, _ := slabCache.Get().(*slab)
		if s == nil {
			s = new(slab)
		}
		pl.slabs = append(pl.slabs, s)
		pl.carved = 0
	}
	pl.carved++
	return &pl.slabs[len(pl.slabs)-1][pl.carved-1]
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

// close hands the pool's slabs to slabCache and empties the pool. Every
// packet it handed out goes with them.
func (pl *PacketPool) close() {
	for _, s := range pl.slabs {
		slabCache.Put(s)
	}
	pl.free, pl.slabs, pl.carved = nil, nil, 0
}
