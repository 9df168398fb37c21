package transport

import (
	"slices"
	"sort"
)

// intervalSet is a sorted list of disjoint, non-adjacent half-open byte
// ranges. It backs both the receiver's out-of-order map and the sender's
// SACK scoreboard.
type intervalSet struct {
	ranges []byteRange
	total  int64 // cached covered bytes
}

// Add inserts [lo, hi), coalescing with neighbours.
func (s *intervalSet) Add(lo, hi int64) {
	if hi <= lo {
		return
	}
	// Find insertion window: all ranges overlapping or adjacent to [lo,hi).
	i := sort.Search(len(s.ranges), func(k int) bool { return s.ranges[k].hi >= lo })
	j := i
	for j < len(s.ranges) && s.ranges[j].lo <= hi {
		if s.ranges[j].lo < lo {
			lo = s.ranges[j].lo
		}
		if s.ranges[j].hi > hi {
			hi = s.ranges[j].hi
		}
		s.total -= s.ranges[j].hi - s.ranges[j].lo
		j++
	}
	// Swap ranges[i:j] for the merged range in place; only a new high-water
	// range count grows the backing array.
	s.ranges = slices.Replace(s.ranges, i, j, byteRange{lo, hi})
	s.total += hi - lo
}

// TrimBelow removes coverage below seq.
func (s *intervalSet) TrimBelow(seq int64) {
	out := s.ranges[:0]
	var total int64
	for _, r := range s.ranges {
		if r.hi <= seq {
			continue
		}
		if r.lo < seq {
			r.lo = seq
		}
		out = append(out, r)
		total += r.hi - r.lo
	}
	s.ranges = out
	s.total = total
}

// Covers reports whether [lo, hi) is entirely covered.
func (s *intervalSet) Covers(lo, hi int64) bool {
	i := sort.Search(len(s.ranges), func(k int) bool { return s.ranges[k].hi > lo })
	return i < len(s.ranges) && s.ranges[i].lo <= lo && hi <= s.ranges[i].hi
}

// NextAbove returns the first covered range ending after seq, or ok=false.
func (s *intervalSet) NextAbove(seq int64) (byteRange, bool) {
	i := sort.Search(len(s.ranges), func(k int) bool { return s.ranges[k].hi > seq })
	if i >= len(s.ranges) {
		return byteRange{}, false
	}
	return s.ranges[i], true
}

// Total returns the covered byte count.
func (s *intervalSet) Total() int64 { return s.total }

// Len returns the number of disjoint ranges.
func (s *intervalSet) Len() int { return len(s.ranges) }

// Clear empties the set.
func (s *intervalSet) Clear() {
	s.ranges = s.ranges[:0]
	s.total = 0
}

// Replace overwrites the set with the given disjoint sorted ranges clipped
// to lie above floor.
func (s *intervalSet) Replace(blocks []byteRange, floor int64) {
	s.ranges = s.ranges[:0]
	s.total = 0
	for _, r := range blocks {
		if r.hi <= floor {
			continue
		}
		if r.lo < floor {
			r.lo = floor
		}
		s.ranges = append(s.ranges, r)
		s.total += r.hi - r.lo
	}
}

// sackLog lets an ACK report the receiver's whole out-of-order map by
// reference. The receiver logs every range it adds to the map, and an ACK
// carries only a mark: the number of ranges logged when it was sent. The
// receiver adds ranges only above its cumulative point and trims the map
// only below it, so the map an ACK reported is the union of the ranges
// logged before its mark, cut at its cumulative ACK.
//
// The sender keeps a replica of that union for the highest mark it has
// seen. An ACK that arrives in order replays the entries logged since
// into the replica; one the uplink reordered (a mark below the replica's)
// is rebuilt into a scratch set from the retained entries; a dropped ACK
// needs no bookkeeping at all. Entries leave the front of the log once
// they end at or below una, so it holds the out-of-order arrivals since
// the oldest one still above una, and its dead prefix is reused before
// the log grows.
type sackLog struct {
	entries []byteRange // entries[i] is range number base+i
	base    int64
	head    int // entries[:head] lie below una and are never read again

	replica     intervalSet // union of the ranges before replicaMark, above una
	replicaMark int64
	scratch     intervalSet
}

// add logs a range the receiver added to its out-of-order map. A full
// log first reuses its dead prefix if that is at least half of it, and
// otherwise doubles: a loss episode grows the log to tens of thousands
// of entries, and append's gentler growth for large slices would copy
// it over and over.
func (l *sackLog) add(lo, hi int64) {
	if n := len(l.entries); n == cap(l.entries) {
		if l.head > 0 && 2*l.head >= n {
			l.entries = l.entries[:copy(l.entries, l.entries[l.head:])]
			l.base += int64(l.head)
			l.head = 0
		} else {
			l.entries = slices.Grow(l.entries, max(n, 16))
		}
	}
	l.entries = append(l.entries, byteRange{lo, hi})
}

// mark returns the number of ranges logged so far: the mark an ACK sent
// now carries.
func (l *sackLog) mark() int64 { return l.base + int64(len(l.entries)) }

// load replaces sb with the map the ACK carrying mark reported, clipped
// at floor. floor must be at least the una of the last trim, below which
// the replica and the log have forgotten ranges, and at least the ACK's
// cumulative point, below which they still hold ranges the receiver had
// pulled in order by the time it sent the ACK.
func (l *sackLog) load(sb *intervalSet, mark, floor int64) {
	src := &l.replica
	if mark >= l.replicaMark {
		for ; l.replicaMark < mark; l.replicaMark++ {
			r := l.entries[l.replicaMark-l.base]
			l.replica.Add(r.lo, r.hi)
		}
	} else {
		src = &l.scratch
		l.scratch.Clear()
		// A mark at or below the first retained entry reports nothing
		// above una: every entry before it ended below una.
		end := max(mark-l.base, int64(l.head))
		for _, r := range l.entries[l.head:end] {
			if r.hi > floor {
				l.scratch.Add(r.lo, r.hi)
			}
		}
	}
	sb.Replace(src.ranges, floor)
}

// trim forgets what lies below una: the replica's coverage there, and
// the log entries at the front that end at or below it. It never drops an
// entry the replica has yet to replay.
func (l *sackLog) trim(una int64) {
	l.replica.TrimBelow(una)
	for l.base+int64(l.head) < l.replicaMark && l.entries[l.head].hi <= una {
		l.head++
	}
}
