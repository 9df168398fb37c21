// Command fgdataset exports the simulated measurement campaign in the
// spirit of the paper's public data release [68]: the survey KPI log, the
// hand-off event, signaling and measurement-event-mix tables, a UDP loss
// trace, pwrStrip battery traces of the web, video and file workloads,
// the Table 6 server catalog, and a manifest.
//
//	fgdataset -out dataset/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"fivegsim/internal/coverage"
	"fivegsim/internal/dataset"
	"fivegsim/internal/deploy"
	"fivegsim/internal/energy"
	"fivegsim/internal/handoff"
	"fivegsim/internal/netsim"
	"fivegsim/internal/pwrstrip"
	"fivegsim/internal/radio"
	"fivegsim/internal/traffic"
	"fivegsim/internal/wire"
	"fivegsim/internal/xcal"
)

func main() {
	out := flag.String("out", "dataset", "output directory")
	seed := flag.Int64("seed", 42, "seed")
	samples := flag.Int("samples", 2000, "survey samples")
	hoMinutes := flag.Int("ho-minutes", 20, "hand-off campaign duration")
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*out, *seed, *samples, *hoMinutes); err != nil {
		log.Fatalf("fgdataset: %v", err)
	}
}

// run writes the bundle into the directory out: survey samples KPI
// points, a hand-off campaign of hoMinutes minutes, and the traces and
// tables listed in the package doc, all from seed.
func run(out string, seed int64, samples, hoMinutes int) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	manifest := map[string]interface{}{
		"paper": "Understanding Operational 5G (SIGCOMM 2020), simulated reproduction",
		"seed":  seed,
		"files": []string{},
	}
	files := []string{}
	// write keeps the first error; later writes do nothing.
	var err error
	write := func(name string, header []string, rows [][]string) {
		if err != nil {
			return
		}
		var f *os.File
		if f, err = os.Create(filepath.Join(out, name)); err != nil {
			return
		}
		if err = dataset.WriteCSV(f, header, rows); err != nil {
			f.Close()
			err = fmt.Errorf("%s: %w", name, err)
			return
		}
		if err = f.Close(); err != nil {
			return
		}
		files = append(files, name)
		fmt.Printf("wrote %-28s %6d rows\n", name, len(rows))
	}

	campus := deploy.New(seed)

	// 1. Blanket-survey KPI log (XCAL format).
	survey := coverage.RunSurvey(campus, samples, seed, 1)
	kpi := xcal.New()
	for i, sm := range survey.Samples {
		at := time.Duration(i) * 100 * time.Millisecond
		kpi.LogKPI(at, sm.Pos, sm.NR, radio.BandNR().PRBs)
		kpi.LogKPI(at, sm.Pos, sm.LTE, radio.BandLTE().PRBs)
	}
	write("survey_kpi.csv", xcal.KPIHeader(), kpi.KPIRows())

	// 2. Hand-off campaign: events plus the signaling ladders.
	hcfg := handoff.DefaultConfig()
	hcfg.Duration = time.Duration(hoMinutes) * time.Minute
	camp := handoff.RunCampaign(campus, hcfg, seed)
	var hoRows [][]string
	sig := xcal.New()
	for _, e := range camp.Events {
		hoRows = append(hoRows, []string{
			fmt.Sprintf("%d", e.At.Milliseconds()),
			e.Kind.String(),
			fmt.Sprintf("%d", e.FromPCI),
			fmt.Sprintf("%d", e.ToPCI),
			fmt.Sprintf("%.3f", float64(e.Latency)/float64(time.Millisecond)),
			fmt.Sprintf("%.2f", e.RSRQBefore),
			fmt.Sprintf("%.2f", e.RSRQAfter),
		})
		sig.LogHandoff(e)
	}
	write("handoff_events.csv",
		[]string{"t_ms", "kind", "from_pci", "to_pci", "latency_ms", "rsrq_before_db", "rsrq_after_db"},
		hoRows)
	write("handoff_signaling.csv", xcal.SignalingHeader(), sig.SignalingRows())
	measTotal := 0
	for _, n := range camp.MeasEvents {
		measTotal += n
	}
	var measRows [][]string
	for _, e := range []handoff.EventType{handoff.A1, handoff.A2, handoff.A3, handoff.A5, handoff.B1} {
		n := camp.MeasEvents[e]
		share := 0.0
		if measTotal > 0 {
			share = 100 * float64(n) / float64(measTotal)
		}
		measRows = append(measRows, []string{e.String(), fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", share)})
	}
	write("handoff_meas_events.csv", []string{"event", "count", "share_pct"}, measRows)

	// 3. A 5G UDP loss trace near capacity (the Fig. 11 raw data).
	pcfg := netsim.DefaultPath(radio.NR, true)
	pcfg.Seed = seed
	var lossRows [][]string
	netsim.RunUDP(pcfg, pcfg.RANRateBps*0.9, 10*time.Second, func(run netsim.LossRun) {
		lossRows = append(lossRows, []string{
			fmt.Sprintf("%d", run.First), fmt.Sprintf("%d", run.First+int64(run.Len)-1), fmt.Sprintf("%d", run.Len),
		})
	})
	write("udp_loss_runs.csv", []string{"first_lost_seq", "last_lost_seq", "run_len"}, lossRows)

	// 4. pwrStrip battery traces of the NSA replays, one per workload.
	for _, w := range []struct {
		name  string
		trace func(int64) energy.Trace
	}{{"web", traffic.Web}, {"video", traffic.Video}, {"file", traffic.File}} {
		replay := energy.Replay(energy.ModelNSA, w.trace(seed))
		recs := pwrstrip.Capture(replay.Series, energy.SystemPowerW)
		write("pwrstrip_"+w.name+"_nsa.csv", pwrstrip.Header(), pwrstrip.Rows(recs))
	}

	// 5. The Table 6 server catalog.
	var srvRows [][]string
	for _, s := range wire.Servers {
		srvRows = append(srvRows, []string{
			fmt.Sprintf("%d", s.ID), s.Name, s.IP, s.City,
			fmt.Sprintf("%.4f", s.Lat), fmt.Sprintf("%.4f", s.Lon),
			fmt.Sprintf("%.2f", s.DistanceKm),
		})
	}
	write("servers.csv", []string{"id", "name", "ip", "city", "lat", "lon", "distance_km"}, srvRows)

	if err != nil {
		return err
	}
	manifest["files"] = files
	mf, err := os.Create(filepath.Join(out, "manifest.json"))
	if err != nil {
		return err
	}
	if err := dataset.WriteJSON(mf, manifest); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}
	fmt.Printf("dataset bundle written to %s\n", out)
	return nil
}
