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
// carries only a mark: the number of bytes logged when it was sent. The
// receiver adds ranges only above its cumulative point and trims the map
// only below it, so the map an ACK reported is the union of the bytes
// logged before its mark, cut at its cumulative ACK.
//
// The log keeps one run per stretch of adjacent ranges: a range that
// starts where the newest run ends extends it, and any other range starts
// a new run. Segments above a hole arrive in order, so one loss episode
// logs a few runs rather than one entry per segment. A run records at,
// the bytes logged before it started, so the part of run r that a mark m
// covers is [r.lo, min(r.hi, r.lo+m−r.at)); runs lie back to back in the
// log's byte order, and only the newest run grows.
//
// The sender keeps a replica of that union for the highest mark it has
// seen. An ACK that arrives in order replays the bytes logged since into
// the replica; one the uplink reordered (a mark below the replica's) is
// rebuilt into a scratch set from the retained runs; a dropped ACK needs
// no bookkeeping at all. Runs leave the front of the log once they are
// fully replayed and end at or below una, so it holds the out-of-order
// arrivals since the oldest one still above una, and its dead prefix is
// reused before the log grows.
type sackLog struct {
	runs   []sackRun
	head   int   // runs[:head] lie below una and are never read again
	logged int64 // bytes logged so far

	replica     intervalSet // union of the bytes logged before replicaMark, above una
	replicaMark int64
	replicaRun  int // the run holding the replica's next byte; at least head
	scratch     intervalSet
}

// sackRun is one run of adjacent logged ranges, [lo, hi), whose first
// byte was the log's byte number at.
type sackRun struct{ lo, hi, at int64 }

// end returns the number of bytes logged when the run stopped growing, or
// so far if it is the newest.
func (r sackRun) end() int64 { return r.at + r.hi - r.lo }

// add logs a range the receiver added to its out-of-order map. A range
// adjacent to the newest run extends it, unless trim has passed that run.
// A full log first reuses its dead prefix if that is at least half of it,
// and otherwise doubles: a long loss episode with many holes grows the
// log to thousands of runs, and append's gentler growth for large slices
// would copy it over and over.
func (l *sackLog) add(lo, hi int64) {
	n := len(l.runs)
	if l.head < n && l.runs[n-1].hi == lo {
		l.runs[n-1].hi = hi
	} else {
		if n == cap(l.runs) {
			if l.head > 0 && 2*l.head >= n {
				l.runs = l.runs[:copy(l.runs, l.runs[l.head:])]
				l.replicaRun -= l.head
				l.head = 0
			} else {
				l.runs = slices.Grow(l.runs, max(n, 16))
			}
		}
		l.runs = append(l.runs, sackRun{lo, hi, l.logged})
	}
	l.logged += hi - lo
}

// mark returns the number of bytes logged so far: the mark an ACK sent
// now carries.
func (l *sackLog) mark() int64 { return l.logged }

// load replaces sb with the map the ACK carrying mark reported, clipped
// at floor. floor must be at least the una of the last trim, below which
// the replica and the log have forgotten ranges, and at least the ACK's
// cumulative point, below which they still hold ranges the receiver had
// pulled in order by the time it sent the ACK.
func (l *sackLog) load(sb *intervalSet, mark, floor int64) {
	src := &l.replica
	if mark >= l.replicaMark {
		for l.replicaMark < mark {
			r := l.runs[l.replicaRun]
			// Step to the next run only for bytes past this one's end:
			// the newest run may still grow.
			if l.replicaMark == r.end() {
				l.replicaRun++
				continue
			}
			upto := min(mark, r.end())
			l.replica.Add(r.lo+l.replicaMark-r.at, r.lo+upto-r.at)
			l.replicaMark = upto
		}
	} else {
		src = &l.scratch
		l.scratch.Clear()
		// Runs before head ended below una; a retained run that started
		// at or after the mark reports nothing.
		for _, r := range l.runs[l.head:] {
			if r.at >= mark {
				break
			}
			if hi := min(r.hi, r.lo+mark-r.at); hi > floor {
				l.scratch.Add(r.lo, hi)
			}
		}
	}
	sb.Replace(src.ranges, floor)
}

// trim forgets what lies below una: the replica's coverage there, and
// the runs at the front of the log that end at or below it. It never
// drops a run the replica has yet to replay in full.
func (l *sackLog) trim(una int64) {
	l.replica.TrimBelow(una)
	for l.head < len(l.runs) && l.runs[l.head].end() <= l.replicaMark && l.runs[l.head].hi <= una {
		l.head++
	}
	l.replicaRun = max(l.replicaRun, l.head)
}
