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
func FuzzSackLog(f *testing.F) {
	const mss = int64(netsim.MSS)
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Conn
		var ref intervalSet // the scoreboard under copy-per-ACK
		var pending []sentAck
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
					continue
				}
				i := int(arg) % len(pending)
				a := pending[i]
				pending = slices.Delete(pending, i, i+1)
				if op == 3 {
					continue // dropped on the uplink
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
		}
	})
}
