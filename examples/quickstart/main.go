// Quickstart: build the campus, take one physical-layer measurement, run
// one TCP flow over the simulated 5G path, and regenerate one figure via
// the experiment registry — the three levels of the public API.
package main

import (
	"context"
	"fmt"
	"time"

	"fivegsim"
	"fivegsim/internal/deploy"
	"fivegsim/internal/geom"
	"fivegsim/internal/netsim"
	"fivegsim/internal/radio"
	"fivegsim/internal/transport"
)

func main() {
	// 1. The physical layer: what does the phone see in the middle of the
	// campus?
	campus := deploy.New(42)
	p := geom.Point{X: 250, Y: 460}
	nr, _ := campus.BestServer(radio.NR, p)
	lte, _ := campus.BestServer(radio.LTE, p)
	fmt.Printf("at (%.0f,%.0f): 5G PCI %d RSRP %.1f dBm (SINR %.1f dB), 4G PCI %d RSRP %.1f dBm\n",
		p.X, p.Y, nr.PCI, nr.RSRPdBm, nr.SINRdB, lte.PCI, lte.RSRPdBm)
	fmt.Printf("5G link there could carry %.0f Mb/s with a full PRB grant\n",
		radio.DLBitRate(nr, radio.BandNR(), radio.BandNR().PRBs)/1e6)

	// 2. The transport layer: a 10 s BBR bulk flow over the 5G path.
	cfg := netsim.DefaultPath(radio.NR, true)
	bulk := transport.RunBulk(cfg, "bbr", 10*time.Second)
	fmt.Printf("10 s of TCP/BBR over 5G: %.0f Mb/s (srtt %v, %d loss events)\n",
		bulk.ThroughputBps/1e6, bulk.MeanRTT.Round(time.Millisecond), bulk.LossEvents)

	// 3. The campaign layer: regenerate a paper figure.
	res, err := fivegsim.RunContext(context.Background(), "F3", fivegsim.QuickConfig())
	if err != nil {
		panic(err)
	}
	fmt.Print(res.Report())
}
