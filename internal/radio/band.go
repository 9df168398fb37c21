// Package radio models the physical layer of the measured networks: the
// LTE b3 and NR n78 carriers, path loss at 1.8/3.5 GHz, sector antennas,
// shadow fading, and the SINR → CQI/MCS → bit-rate chain.
//
// The constants are calibrated against the paper's published figures: NR
// peak PHY rate 1200.98 Mb/s at 264 PRBs with TDD 3:1 (Rel-15 TS 38.306),
// MCS 27 / 256-QAM / code rate 0.925 as the top of the link-adaptation
// table, ≈230 m usable 5G radius vs ≈520 m for 4G on the same campus, and
// the RSRP service threshold of −105 dBm (Rel-15 TS 36.211).
package radio

import "fmt"

// Tech identifies the radio access technology of a carrier or cell.
type Tech int

const (
	// LTE is 4G (the b3 master layer under NSA).
	LTE Tech = iota
	// NR is 5G new radio (the n78 data layer under NSA).
	NR
)

// String returns the marketing name of the technology.
func (t Tech) String() string {
	switch t {
	case LTE:
		return "4G"
	case NR:
		return "5G"
	default:
		return fmt.Sprintf("Tech(%d)", int(t))
	}
}

// Duplex is the duplexing scheme of a band.
type Duplex int

const (
	// FDD uses paired spectrum (LTE b3).
	FDD Duplex = iota
	// TDD time-shares one carrier (NR n78, 3:1 DL:UL in the measured ISP).
	TDD
)

// Band describes one carrier configuration.
type Band struct {
	Name         string  // 3GPP band name
	Tech         Tech    // LTE or NR
	CarrierMHz   float64 // center frequency
	BandwidthMHz float64 // channel bandwidth
	Duplex       Duplex
	DLShare      float64 // fraction of airtime available for downlink
	PRBs         int     // usable physical resource blocks
	SCSkHz       float64 // subcarrier spacing
	Layers       int     // spatial layers the UE sustains
	Overhead     float64 // effective L1 overhead (control, RS, imperfect rank)
}

// BandLTE returns the measured 4G carrier: b3, 1.8 GHz band, 20 MHz FDD.
// The paper's campus eNBs run 1840–1860 MHz.
func BandLTE() Band {
	return Band{
		Name:         "b3",
		Tech:         LTE,
		CarrierMHz:   1850,
		BandwidthMHz: 20,
		Duplex:       FDD,
		DLShare:      1.0,
		PRBs:         100,
		SCSkHz:       15,
		Layers:       2,
		Overhead:     0.14,
	}
}

// BandNR returns the measured 5G carrier: n78, 3.5 GHz, 100 MHz TDD with a
// 3:1 downlink:uplink slot ratio (the paper's ISP configuration following
// Rel-15 TS 38.306). The UE is observed with 260–264 allocated PRBs; we use
// 264. Overhead is calibrated so the peak DL PHY rate (all PRBs at MCS 27)
// equals the paper's 1200.98 Mb/s.
func BandNR() Band {
	return Band{
		Name:         "n78",
		Tech:         NR,
		CarrierMHz:   3500,
		BandwidthMHz: 100,
		Duplex:       TDD,
		DLShare:      0.75,
		PRBs:         264,
		SCSkHz:       30,
		Layers:       4,
		Overhead:     nrOverhead,
	}
}

// nrOverhead makes BandNR's peak DL PHY rate come out at 1200.98 Mb/s.
// It folds together PDCCH/DMRS/CSI-RS overhead and the average rank
// actually achieved by the phone, which the paper does not decompose.
const nrOverhead = 0.390175

// SymbolsPerSecond returns OFDM symbols per second per subcarrier: 14
// symbols per slot, slot duration 1 ms / (SCS/15 kHz).
func (b Band) SymbolsPerSecond() float64 {
	slotsPerSecond := 1000 * b.SCSkHz / 15
	return 14 * slotsPerSecond
}

// REsPerSecond returns resource elements per second over nPRB resource
// blocks (12 subcarriers each).
func (b Band) REsPerSecond(nPRB int) float64 {
	return float64(nPRB) * 12 * b.SymbolsPerSecond()
}

// Rate returns the downlink PHY bit-rate in bits/s for the given spectral
// efficiency per layer (bits per resource element) and PRB allocation.
func (b Band) Rate(sePerLayer float64, nPRB int) float64 {
	return sePerLayer * float64(b.Layers) * b.REsPerSecond(nPRB) * (1 - b.Overhead) * b.DLShare
}
