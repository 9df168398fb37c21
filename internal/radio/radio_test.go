package radio

import (
	"math"
	"testing"
	"testing/quick"

	"fivegsim/internal/geom"
	"fivegsim/internal/rng"
)

func TestPeakDLRateMatchesPaper(t *testing.T) {
	// The paper: "the maximum physical layer bit-rate is 1200.98 Mbps for
	// 5G DL (time slot ratio is 3:1 ...)".
	b := BandNR()
	got := b.Rate(MaxSpectralEfficiency, b.PRBs) / 1e6
	if math.Abs(got-1200.98) > 1.0 {
		t.Fatalf("NR peak DL = %.2f Mb/s, want ≈1200.98", got)
	}
}

func TestLTEPeakPlausible(t *testing.T) {
	b := BandLTE()
	got := b.Rate(MaxSpectralEfficiency, b.PRBs) / 1e6
	// 20 MHz FDD with 2 layers: low-200s Mb/s, consistent with the 200 Mb/s
	// late-night UDP baseline the paper measures.
	if got < 180 || got > 260 {
		t.Fatalf("LTE peak DL = %.2f Mb/s, want ≈180–260", got)
	}
}

func TestRateMonotoneInPRBs(t *testing.T) {
	f := func(a, b uint8) bool {
		pa, pb := int(a%100)+1, int(b%100)+1
		if pa > pb {
			pa, pb = pb, pa
		}
		band := BandNR()
		return band.Rate(5, pa) <= band.Rate(5, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpectralEfficiencyShape(t *testing.T) {
	if se := SpectralEfficiency(-20); se > 0.05 {
		t.Fatalf("SE at −20 dB = %v, want ≈0", se)
	}
	if se := SpectralEfficiency(40); se != MaxSpectralEfficiency {
		t.Fatalf("SE at 40 dB = %v, want clipped at %v", se, MaxSpectralEfficiency)
	}
	prev := -1.0
	for s := -20.0; s <= 40; s += 0.5 {
		se := SpectralEfficiency(s)
		if se < prev {
			t.Fatalf("SE not monotone at %v dB", s)
		}
		prev = se
	}
}

func TestCQIAndMCSRanges(t *testing.T) {
	f := func(sinr float64) bool {
		if math.IsNaN(sinr) || math.IsInf(sinr, 0) {
			return true
		}
		sinr = math.Mod(sinr, 200)
		cqi := CQIFromSINR(sinr)
		mcs := MCSFromCQI(cqi)
		return cqi >= 1 && cqi <= 15 && mcs >= 0 && mcs <= 27
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// A strong link must reach the top of the table.
	if mcs := MCSFromCQI(CQIFromSINR(25)); mcs != 27 {
		t.Fatalf("MCS at 25 dB SINR = %d, want 27", mcs)
	}
}

func TestServiceRadiusNR(t *testing.T) {
	// §3.2: "the coverage radius of one gNB is approximate 230m in dense
	// urban areas". Find the LoS distance where RSRP crosses −105 dBm.
	c := &Cell{
		Tech: NR, Band: BandNR(), Pos: geom.Point{},
		Antenna: DefaultSector(0), EIRPPerREdBm: DefaultEIRPPerRE(NR),
	}
	radius := serviceRadius(c)
	if radius < 180 || radius > 300 {
		t.Fatalf("NR service radius = %.0f m, want ≈230 m", radius)
	}
}

func TestServiceRadiusLTE(t *testing.T) {
	// §3.2: "typical 4G link distance is much longer, at around 520m".
	c := &Cell{
		Tech: LTE, Band: BandLTE(), Pos: geom.Point{},
		Antenna: DefaultSector(0), EIRPPerREdBm: DefaultEIRPPerRE(LTE),
	}
	radius := serviceRadius(c)
	if radius < 430 || radius > 640 {
		t.Fatalf("LTE service radius = %.0f m, want ≈520 m", radius)
	}
	nr := &Cell{
		Tech: NR, Band: BandNR(), Pos: geom.Point{},
		Antenna: DefaultSector(0), EIRPPerREdBm: DefaultEIRPPerRE(NR),
	}
	if serviceRadius(nr) >= radius {
		t.Fatal("NR radius must be smaller than LTE radius")
	}
}

func serviceRadius(c *Cell) float64 {
	for d := 1.0; d < 2000; d += 1 {
		rsrp := RSRPAt(c, geom.Point{X: d}, OpenField{}, 0)
		if rsrp < ServiceThresholdDBm {
			return d
		}
	}
	return 2000
}

func TestIndoorPenaltyLargerForNR(t *testing.T) {
	nr, lte := PropagationFor(NR), PropagationFor(LTE)
	nrPenalty := nr.PathLoss(100, 1, true) - nr.PathLoss(100, 0, false)
	ltePenalty := lte.PathLoss(100, 1, true) - lte.PathLoss(100, 0, false)
	if nrPenalty <= ltePenalty {
		t.Fatalf("NR indoor penalty (%.1f dB) must exceed LTE's (%.1f dB)", nrPenalty, ltePenalty)
	}
}

func TestAntennaPattern(t *testing.T) {
	a := DefaultSector(90)
	if g := a.GainDBi(90); g != a.MaxGainDBi {
		t.Fatalf("boresight gain = %v", g)
	}
	// At the 3 dB beamwidth the pattern is 12 dB down in this model's
	// parabolic form evaluated at θ = beamwidth.
	if g := a.GainDBi(90 + 65); math.Abs((a.MaxGainDBi-g)-12) > 1e-9 {
		t.Fatalf("gain at beamwidth edge = %v", g)
	}
	if g := a.GainDBi(270); a.MaxGainDBi-g != a.FrontToBack {
		t.Fatalf("back-lobe attenuation = %v, want %v", a.MaxGainDBi-g, a.FrontToBack)
	}
}

func TestMeasureCellSINRDropsWithInterference(t *testing.T) {
	c := &Cell{PCI: 1, Tech: NR, Band: BandNR()}
	clean := MeasureCell(c, -80, nil)
	dirty := MeasureCell(c, -80, []InterferenceTerm{{PCI: 2, RSRPdBm: -85, Load: 1}})
	if dirty.SINRdB >= clean.SINRdB {
		t.Fatal("interference must reduce SINR")
	}
	if dirty.RSRQdB >= clean.RSRQdB {
		t.Fatal("interference must reduce RSRQ")
	}
	if clean.RSRQdB > -3 || clean.RSRQdB < -25 {
		t.Fatalf("RSRQ out of reportable range: %v", clean.RSRQdB)
	}
}

func TestMeasurementUsable(t *testing.T) {
	c := &Cell{PCI: 1, Tech: NR, Band: BandNR()}
	if m := MeasureCell(c, -104.9, nil); !m.Usable() {
		t.Fatal("−104.9 dBm should be usable")
	}
	if m := MeasureCell(c, -105.1, nil); m.Usable() {
		t.Fatal("−105.1 dBm should be unusable")
	}
}

func TestHARQAttemptDistribution(t *testing.T) {
	// Paper Fig. 10: all retransmissions succeed within ≤4 attempts (4G)
	// and ≤2 (5G); residual loss is effectively impossible.
	r := rng.New(1).Stream("harq")
	for _, tech := range []Tech{LTE, NR} {
		h := HARQFor(tech)
		maxAttempts := 0
		losses := 0
		n := 200000
		for i := 0; i < n; i++ {
			a, lost := h.Attempts(r.Float64())
			if a > maxAttempts {
				maxAttempts = a
			}
			if lost {
				losses++
			}
		}
		if losses != 0 {
			t.Fatalf("%v: HARQ residual losses = %d, want 0", tech, losses)
		}
		limit := 4
		if tech == NR {
			limit = 3
		}
		if maxAttempts > limit {
			t.Fatalf("%v: max attempts = %d, want ≤ %d", tech, maxAttempts, limit)
		}
		if maxAttempts < 2 {
			t.Fatalf("%v: max attempts = %d, retransmissions should occur", tech, maxAttempts)
		}
	}
}

func TestHARQFirstAttemptRate(t *testing.T) {
	r := rng.New(2).Stream("harq")
	h := HARQFor(NR)
	first := 0
	n := 100000
	for i := 0; i < n; i++ {
		a, _ := h.Attempts(r.Float64())
		if a == 1 {
			first++
		}
	}
	got := float64(first) / float64(n)
	if math.Abs(got-(1-h.BlerTarget)) > 0.01 {
		t.Fatalf("first-attempt success = %.3f, want ≈%.2f", got, 1-h.BlerTarget)
	}
}

func TestTechString(t *testing.T) {
	if LTE.String() != "4G" || NR.String() != "5G" {
		t.Fatal("Tech.String mismatch")
	}
}
