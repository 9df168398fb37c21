package transport

import (
	"math/bits"
	"testing"
)

// fuzzUniverse bounds the byte offsets FuzzIntervalSet works in, so a
// uint64 bitmap is a complete reference model of the set.
const fuzzUniverse = 64

// maxFuzzOps caps the ops one input decodes into, so long inputs cannot
// stall the fuzzer; every bug in reach of a 64-byte universe needs far
// fewer.
const maxFuzzOps = 64

// runsOf returns the maximal runs of set bits in m as sorted, disjoint,
// non-adjacent [lo, hi) blocks: Replace's input and the only layout the
// set may hold for that coverage.
func runsOf(m uint64) []byteRange {
	var out []byteRange
	for lo := 0; lo < fuzzUniverse; {
		if m&(1<<lo) == 0 {
			lo++
			continue
		}
		hi := lo
		for hi < fuzzUniverse && m&(1<<hi) != 0 {
			hi++
		}
		out = append(out, byteRange{int64(lo), int64(hi)})
		lo = hi
	}
	return out
}

// span returns the bitmap of [lo, hi) within the universe.
func span(lo, hi int64) uint64 {
	var m uint64
	for i := max(lo, 0); i < min(hi, fuzzUniverse); i++ {
		m |= 1 << i
	}
	return m
}

// FuzzIntervalSet drives an intervalSet with Add, TrimBelow, Clear and
// Replace decoded from the fuzz input, mirrors each op on a bitmap and
// checks after every op that the ranges are sorted, disjoint and
// non-adjacent and that Total, Covers and NextAbove agree with the
// bitmap.
func FuzzIntervalSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s intervalSet
		var ref uint64
		for ops := 0; len(data) >= 3 && ops < maxFuzzOps; ops++ {
			op, a, b := data[0]%4, int64(data[1]%(fuzzUniverse+1)), int64(data[2]%(fuzzUniverse+1))
			data = data[3:]
			switch op {
			case 0:
				s.Add(a, b)
				if b > a {
					ref |= span(a, b)
				}
			case 1:
				s.TrimBelow(a)
				ref &^= span(0, a)
			case 2:
				s.Clear()
				ref = 0
			case 3:
				// Replace takes the next (up to) eight bytes as the block
				// bitmap and a as the floor.
				var m uint64
				for i := 0; i < 8 && len(data) > 0; i++ {
					m = m<<8 | uint64(data[0])
					data = data[1:]
				}
				s.Replace(runsOf(m), a)
				ref = m &^ span(0, a)
			}
			checkIntervalSet(t, &s, ref)
		}
	})
}

func checkIntervalSet(t *testing.T, s *intervalSet, ref uint64) {
	t.Helper()
	for i, r := range s.ranges {
		if r.hi <= r.lo {
			t.Fatalf("empty or inverted range %v in %v", r, s.ranges)
		}
		if i > 0 && s.ranges[i-1].hi >= r.lo {
			t.Fatalf("ranges overlap, touch or are unsorted: %v", s.ranges)
		}
	}
	if want := int64(bits.OnesCount64(ref)); s.Total() != want {
		t.Fatalf("Total = %d, want %d (ranges %v)", s.Total(), want, s.ranges)
	}
	// Covers(lo, hi) holds exactly for hi up to the end of the run of
	// covered bytes starting at lo; probe both sides of that edge.
	for lo := int64(0); lo < fuzzUniverse; lo++ {
		reach := lo
		for reach < fuzzUniverse && ref&(1<<reach) != 0 {
			reach++
		}
		for _, hi := range []int64{lo + 1, reach, reach + 1} {
			if hi <= lo || hi > fuzzUniverse {
				continue
			}
			if want := hi <= reach; s.Covers(lo, hi) != want {
				t.Fatalf("Covers(%d, %d) = %t, want %t (ranges %v)", lo, hi, !want, want, s.ranges)
			}
		}
	}
	runs := runsOf(ref)
	for seq := int64(0); seq <= fuzzUniverse; seq++ {
		var want byteRange
		found := false
		for _, r := range runs {
			if r.hi > seq {
				want, found = r, true
				break
			}
		}
		if got, ok := s.NextAbove(seq); ok != found || got != want {
			t.Fatalf("NextAbove(%d) = %v, %t; want %v, %t (ranges %v)", seq, got, ok, want, found, s.ranges)
		}
	}
}
