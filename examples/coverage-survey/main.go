// Coverage survey: walk the campus like the paper's measurement team,
// print the RSRP distribution for both technologies, draw an ASCII
// coverage map, and locate the coverage holes.
package main

import (
	"fmt"

	"fivegsim/internal/coverage"
	"fivegsim/internal/deploy"
	"fivegsim/internal/radio"
)

func main() {
	campus := deploy.New(42)
	survey := coverage.NewSurveyor(campus, 4630, 42).Run(0)

	for _, tech := range []radio.Tech{radio.LTE, radio.NR} {
		s := survey.RSRPSummary(tech)
		fmt.Printf("%v blanket survey (%d samples): RSRP %s dBm, holes %.2f%%\n",
			tech, len(survey.Samples), s, 100*survey.HoleFraction(tech, false))
	}

	// ASCII RSRP map of the 5G layer (Fig. 2a): darker = stronger.
	fmt.Println("\n5G coverage map (#=strong, +=good, .=usable, ' '=hole, B=building):")
	grid := coverage.GridMap(campus, radio.NR, 20, 0)
	for j := len(grid) - 1; j >= 0; j -= 2 { // y grows north; print top-down
		row := ""
		for i := 0; i < len(grid[j]); i++ {
			g := grid[j][i]
			switch {
			case g.Indoor:
				row += "B"
			case g.RSRPdBm >= -70:
				row += "#"
			case g.RSRPdBm >= -90:
				row += "+"
			case g.RSRPdBm >= -105:
				row += "."
			default:
				row += " "
			}
		}
		fmt.Println(row)
	}

	// The paper's location-A walk: how far does cell 72 reach?
	cell := campus.CellByPCI(72)
	fmt.Printf("\ncell 72 usable radius: %.0f m (the paper walks to location A at ≈230 m)\n",
		coverage.UsableRadius(campus, cell))

	drops := coverage.IndoorOutdoorGap(campus, radio.NR, 42)
	var mean float64
	for _, d := range drops {
		mean += d / float64(len(drops))
	}
	fmt.Printf("stepping indoors costs 5G %.0f%% of its bit-rate on average (%d wall pairs)\n",
		100*mean, len(drops))
}
