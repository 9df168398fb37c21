package transport

import (
	"slices"
	"testing"

	"fivegsim/internal/netsim"
)

// maxSackOps caps the ops one FuzzSackLog input decodes into. It is
// larger than maxFuzzOps: reusing the log's dead prefix needs a few
// rounds of growth first.
const maxSackOps = 256

// sentAck is an ACK in flight in FuzzSackLog: what the connection put on
// the wire (cumulative point and SACK mark) and, as the oracle, the copy
// of the out-of-order map that every ACK carried before the SACK log.
type sentAck struct {
	ackSeq, mark int64
	ooo          []byteRange
}

// FuzzSackLog checks the SACK log against the model it replaced, in which
// every ACK carried its own copy of the receiver's out-of-order map. The
// input decodes into two-byte ops on one connection's receiver and
// sender halves:
//
//   - an arrival of the MSS-aligned segment a few MSS below, at or above
//     rcvNext (duplicate, in order or out of order);
//   - an ACK send, which records the mark it carries and a copy of the map
//     and cumulative point it reports;
//   - the delivery of any pending ACK, so ACKs arrive in any order;
//   - the drop of any pending ACK;
//   - a retransmission timeout, which forgets the scoreboard.
//
// After each delivery the scoreboard must equal the delivered ACK's copy
// clipped at una, the largest cumulative point delivered so far (an ACK
// without SACK blocks leaves the previous scoreboard, clipped at una),
// and an ACK that advances una must leave the log's front run above una
// or not yet replayed in full.
//
// Each input runs twice: on a new connection, and on one whose storage
// starts as a closed path's connection hands it on, with a capacity of
// its own and stale contents past its length. The scoreboard must be
// the same after every op.
func FuzzSackLog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := sackLogOps(t, new(Conn), data)
		recycled := sackLogOps(t, recycledConn(1+len(data)%23), data)
		for i := range fresh {
			if !slices.Equal(fresh[i], recycled[i]) {
				t.Fatalf("op %d: scoreboard %v on recycled storage, %v on new", i, recycled[i], fresh[i])
			}
		}
	})
}

// recycledConn returns a connection on storage like the one a closed
// path's connection hands on: each slice at length 0, with capacity n or
// more and stale ranges and runs past its length.
func recycledConn(n int) *Conn {
	const mss = int64(netsim.MSS)
	stale := func(n int) []byteRange {
		r := make([]byteRange, n)
		for i := range r {
			r[i] = byteRange{int64(i) * mss, int64(i+2) * mss}
		}
		return r[:0]
	}
	runs := make([]sackRun, n)
	for i := range runs {
		runs[i] = sackRun{int64(i) * mss, int64(i+1) * mss, int64(i) * mss}
	}
	c := new(Conn)
	c.adopt(&storage{runs: runs[:0], sacked: stale(n), ooo: stale(n + 1), replica: stale(n + 2), scratch: stale(n + 3)})
	return c
}

// sackLogOps runs FuzzSackLog's ops on c against the copy-per-ACK model
// and returns the scoreboard after every op.
func sackLogOps(t *testing.T, c *Conn, data []byte) [][]byteRange {
	t.Helper()
	const mss = int64(netsim.MSS)
	var ref intervalSet // the scoreboard under copy-per-ACK
	var pending []sentAck
	var trace [][]byteRange
	for ops := 0; len(data) >= 2 && ops < maxSackOps; ops++ {
		op, arg := data[0]%5, int64(data[1])
		data = data[2:]
		switch op {
		case 0:
			seq := max(c.rcvNext+(arg%32-2)*mss, 0)
			c.receive(seq, seq+mss)
		case 1:
			a := sentAck{ackSeq: c.rcvNext, ooo: slices.Clone(c.ooo.ranges)}
			if c.ooo.Len() > 0 {
				a.mark = c.sack.mark()
			}
			pending = append(pending, a)
		case 2, 3:
			if len(pending) == 0 {
				break
			}
			i := int(arg) % len(pending)
			a := pending[i]
			pending = slices.Delete(pending, i, i+1)
			if op == 3 {
				break // dropped on the uplink
			}
			if a.mark != 0 {
				ref.Replace(a.ooo, c.una)
			}
			advanced := a.ackSeq > c.una
			una := max(c.una, a.ackSeq)
			ref.TrimBelow(una)
			c.acknowledge(a.ackSeq, a.mark)
			if c.una != una {
				t.Fatalf("una = %d after an ACK of %d, want %d", c.una, a.ackSeq, una)
			}
			if !slices.Equal(c.sacked.ranges, ref.ranges) || c.sacked.Total() != ref.Total() {
				t.Fatalf("scoreboard %v (total %d) after ACK %d mark %d, want %v (total %d)",
					c.sacked.ranges, c.sacked.Total(), a.ackSeq, a.mark, ref.ranges, ref.Total())
			}
			l := &c.sack
			if advanced && l.head < len(l.runs) {
				if r := l.runs[l.head]; r.end() <= l.replicaMark && r.hi <= una {
					t.Fatalf("log keeps replayed run %+v below una %d (replica mark %d)", r, una, l.replicaMark)
				}
			}
		case 4:
			c.sacked.Clear()
			ref.Clear()
		}
		trace = append(trace, slices.Clone(c.sacked.ranges))
	}
	return trace
}
