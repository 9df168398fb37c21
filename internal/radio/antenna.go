package radio

import "fivegsim/internal/geom"

// SectorAntenna is the fan-pattern panel antenna of one cell: peak gain at
// boresight with a parabolic roll-off out to a bounded front-to-back ratio
// (3GPP TR 36.814-style horizontal pattern). The paper attributes the
// coverage defects at locations B and C (Fig. 2b) to exactly this limited
// field of view.
type SectorAntenna struct {
	BoresightDeg float64 // azimuth the sector faces, degrees CCW from +x
	BeamwidthDeg float64 // 3 dB beamwidth (typically 65°)
	MaxGainDBi   float64 // boresight gain
	FrontToBack  float64 // maximum attenuation relative to boresight, dB
}

// DefaultSector returns the standard macro-sector pattern used by both the
// eNBs and gNBs in the campus model.
func DefaultSector(boresightDeg float64) SectorAntenna {
	return SectorAntenna{
		BoresightDeg: boresightDeg,
		BeamwidthDeg: 65,
		MaxGainDBi:   17,
		FrontToBack:  25,
	}
}

// GainDBi returns the antenna gain toward the given azimuth.
func (a SectorAntenna) GainDBi(towardDeg float64) float64 {
	theta := geom.AngleDiff(towardDeg, a.BoresightDeg)
	atten := 12 * (theta / a.BeamwidthDeg) * (theta / a.BeamwidthDeg)
	if atten > a.FrontToBack {
		atten = a.FrontToBack
	}
	return a.MaxGainDBi - atten
}
