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
func (s *intervalSet) Replace(blocks [][2]int64, floor int64) {
	s.ranges = s.ranges[:0]
	s.total = 0
	for _, b := range blocks {
		lo, hi := b[0], b[1]
		if hi <= floor {
			continue
		}
		if lo < floor {
			lo = floor
		}
		s.ranges = append(s.ranges, byteRange{lo, hi})
		s.total += hi - lo
	}
}
