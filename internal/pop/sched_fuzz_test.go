package pop

import (
	"encoding/binary"
	"testing"
)

// maxFuzzUEs caps the demand vector one FuzzSchedule input decodes into.
const maxFuzzUEs = 256

// decodeSchedule reads a FuzzSchedule input: the budget and the round
// as little-endian int32s, then one little-endian int32 demand per UE.
// Missing bytes read as zero; a negative demand is an idle UE.
func decodeSchedule(data []byte) (demands []int32, budget int32, round int) {
	word := func() int32 {
		var b [4]byte
		data = data[copy(b[:], data):]
		return int32(binary.LittleEndian.Uint32(b[:]))
	}
	budget, round = word(), int(word())
	for len(data) > 0 && len(demands) < maxFuzzUEs {
		demands = append(demands, word())
	}
	return demands, budget, round
}

// FuzzSchedule holds Schedule to its three properties on any demand
// vector, budget and round: no grant is negative or above its UE's
// demand (0 for an idle UE), the grants sum to min(budget, Σ positive
// demands), and with the demands held fixed every demanding UE is served
// within ⌈n/budget⌉ consecutive rounds.
func FuzzSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		demands, budget, round := decodeSchedule(data)
		n := len(demands)
		var want int64
		for _, d := range demands {
			want += int64(max(d, 0))
		}
		want = min(want, int64(max(budget, 0)))

		grants := make([]int32, n)
		granted := Schedule(demands, grants, budget, round)
		var total int64
		for i, g := range grants {
			if g < 0 || g > max(demands[i], 0) {
				t.Fatalf("UE %d: grant %d for demand %d", i, g, demands[i])
			}
			total += int64(g)
		}
		if total != int64(granted) {
			t.Fatalf("Schedule returned %d, grants sum to %d", granted, total)
		}
		if total != want {
			t.Fatalf("grants sum to %d, want min(budget %d, Σ positive demands) = %d", total, budget, want)
		}

		if budget <= 0 || n == 0 {
			return
		}
		served := make([]bool, n)
		rounds := (n + int(budget) - 1) / int(budget)
		for r := 0; r < rounds; r++ {
			Schedule(demands, grants, budget, round+r)
			for i, g := range grants {
				served[i] = served[i] || g > 0
			}
		}
		for i, d := range demands {
			if d > 0 && !served[i] {
				t.Fatalf("UE %d (demand %d) starved over %d rounds from round %d (n=%d budget=%d)",
					i, d, rounds, round, n, budget)
			}
		}
	})
}
