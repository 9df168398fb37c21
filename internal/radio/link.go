package radio

import (
	"math"

	"fivegsim/internal/geom"
)

// Cell is one sector of a base station as seen by the physical layer.
type Cell struct {
	PCI     int // physical cell identifier
	Tech    Tech
	Band    Band
	Pos     geom.Point
	Antenna SectorAntenna
	// EIRPPerREdBm is the transmitted power per resource element plus
	// feeder/system gains, before the antenna pattern is applied.
	EIRPPerREdBm float64
	// Load is the fraction of the cell's resources occupied by other
	// users (drives interference and PRB contention).
	Load float64
}

// DefaultEIRPPerRE returns the calibrated per-RE EIRP for a technology.
// Combined with PropagationFor these reproduce the paper's usable radii
// (≈230 m NR, ≈520 m LTE) against the −105 dBm service threshold.
func DefaultEIRPPerRE(t Tech) float64 {
	switch t {
	case NR:
		return 13 // 43 dBm over 264·12 REs plus array gain margin
	default:
		return 12.2 // 43 dBm over 100·12 REs ≈ 12.2 dBm/RE
	}
}

// Obstruction abstracts the building map so the radio layer does not
// depend on the deployment package.
type Obstruction interface {
	// WallCrossings returns how many exterior walls the segment a→b
	// penetrates.
	WallCrossings(a, b geom.Point) int
	// Indoor reports whether p is inside a building.
	Indoor(p geom.Point) bool
}

// OpenField is an Obstruction with no buildings.
type OpenField struct{}

// WallCrossings always returns 0 in the open field.
func (OpenField) WallCrossings(a, b geom.Point) int { return 0 }

// Indoor always returns false in the open field.
func (OpenField) Indoor(p geom.Point) bool { return false }

// Measurement is one physical-layer sample, mirroring the KPI set the
// paper extracts with XCAL-Mobile.
type Measurement struct {
	PCI     int
	Tech    Tech
	RSRPdBm float64
	RSRQdB  float64
	SINRdB  float64
	CQI     int
	MCS     int
	// SE is the spectral efficiency per layer in bits per RE.
	SE float64
}

// RSRPAt returns the reference signal received power from cell c at point
// p with the given shadowing value (dB). It is the scalar reference the
// batched CellBatch.RSRPInto is held to bit for bit; production code
// evaluates through the batch, the equivalence suites through this.
func RSRPAt(c *Cell, p geom.Point, obs Obstruction, shadowDB float64) float64 {
	prop := PropagationFor(c.Tech)
	d := c.Pos.Dist(p)
	az := c.Pos.AzimuthTo(p)
	walls := obs.WallCrossings(c.Pos, p)
	pl := prop.PathLoss(d, walls, obs.Indoor(p))
	return c.EIRPPerREdBm + c.Antenna.GainDBi(az) - pl + shadowDB
}

// MeasureCell computes the full KPI sample for a serving cell received
// at servingRSRP, given the RSRP of every co-channel cell (serving
// included) at the same point so that inter-cell interference can be
// accounted. interference lists the RSRP (dBm) of the same-tech cells by
// PCI; their Load scales their contribution. Like RSRPAt it is the
// scalar reference, here for CellBatch.MeasureOne.
func MeasureCell(serving *Cell, servingRSRP float64, interference []InterferenceTerm) Measurement {
	noise := dbmToMw(noisePerREdBm(serving.Band))
	sig := dbmToMw(servingRSRP)
	var interf float64
	for _, it := range interference {
		if it.PCI == serving.PCI {
			continue
		}
		interf += dbmToMw(it.RSRPdBm) * clamp01(it.Load)
	}
	return measureFrom(serving, servingRSRP, sig, interf, noise)
}

// measureFrom finishes a measurement from linear-domain powers (mW per
// RE): the serving signal, the summed load-scaled interference, and the
// thermal noise. Both the scalar MeasureCell and the batched
// CellBatch.MeasureOne funnel through this one KPI chain, which is what
// makes their bit-for-bit equivalence a structural property rather than
// a duplicated formula.
func measureFrom(serving *Cell, servingRSRP, sig, interf, noise float64) Measurement {
	sinr := 10 * math.Log10(sig/(interf+noise))
	// RSRQ is reported against the wideband RSSI, which includes the
	// serving cell's own fully-loaded data REs (the −10.8 dB floor of an
	// isolated full-buffer cell) and a measurement noise floor ≈20 dB above
	// thermal (RF front-end imperfections dominate wideband RSSI at the
	// cell edge). This makes RSRQ sag together with RSRP near the edge,
	// matching the −5…−25 dB span of the paper's Fig. 4.
	measNoise := noise * 100
	rsrq := 10*math.Log10(sig/(sig+interf+measNoise)) - 10.8
	if rsrq < -25 {
		rsrq = -25
	}
	if rsrq > -3 {
		rsrq = -3
	}
	cqi := CQIFromSINR(sinr)
	return Measurement{
		PCI:     serving.PCI,
		Tech:    serving.Tech,
		RSRPdBm: servingRSRP,
		RSRQdB:  rsrq,
		SINRdB:  sinr,
		CQI:     cqi,
		MCS:     MCSFromCQI(cqi),
		SE:      SpectralEfficiency(sinr),
	}
}

// InterferenceTerm is one co-channel neighbor's contribution at a point.
type InterferenceTerm struct {
	PCI     int
	RSRPdBm float64
	Load    float64
}

// DLBitRate returns the downlink PHY bit-rate for a measurement given the
// PRBs granted to this UE.
func DLBitRate(m Measurement, band Band, prbs int) float64 {
	return band.Rate(m.SE, prbs)
}

// Usable reports whether the sample can sustain service (§3.1: below
// −105 dBm the connection cannot even be triggered).
func (m Measurement) Usable() bool { return m.RSRPdBm >= ServiceThresholdDBm }

func dbmToMw(dbm float64) float64 { return math.Pow(10, dbm/10) }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
