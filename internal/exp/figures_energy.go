package exp

import (
	"fmt"
	"math"

	"cuckoodir/internal/energy"
	"cuckoodir/internal/plot"
	"cuckoodir/internal/stats"
)

// seriesMarkers assigns one distinct rune per organization in lineup
// order (Duplicate-Tag, Tagless, Sparse 8x, In-Cache, Hier, Coarse,
// Cuckoo Hier, Cuckoo Coarse).
var seriesMarkers = []rune{'D', 'T', 'S', 'I', 'H', 'C', 'h', 'c'}

// projectionTable renders an energy or area sweep for a lineup of
// organizations over the paper's core counts, with an attached log-scale
// chart mirroring the paper's figure.
func projectionTable(title, unit string, lineup []energy.Organization,
	mkSystem func(cores int) energy.System, pick func(energy.Estimate) float64) *stats.Table {
	headers := []string{"Cores"}
	for _, org := range lineup {
		headers = append(headers, org.Name())
	}
	t := stats.NewTable(title, headers...)
	p := energy.DefaultParams()
	mix := energy.PaperMix()

	cores := energy.CoreCounts()
	xLabels := make([]string, len(cores))
	values := make([][]float64, len(lineup))
	for i := range values {
		values[i] = make([]float64, len(cores))
	}
	for ci, n := range cores {
		xLabels[ci] = fmt.Sprintf("%d", n)
		sys := mkSystem(n)
		row := []string{xLabels[ci]}
		for oi, org := range lineup {
			if !org.AppliesTo(sys) {
				row = append(row, "n/a")
				values[oi][ci] = math.NaN()
				continue
			}
			v := pick(org.Estimate(sys, p, mix))
			row = append(row, fmt.Sprintf("%.1f%%", v*100))
			values[oi][ci] = v * 100
		}
		t.AddRow(row...)
	}
	t.AddNote("unit: %s", unit)

	ch := plot.NewChart("", xLabels)
	ch.LogY = true
	ch.YLabel = unit
	ch.Height = 18
	for oi, org := range lineup {
		ch.Add(org.Name(), seriesMarkers[oi%len(seriesMarkers)], values[oi])
	}
	t.AddChart(ch.String())
	return t
}

// fig4Exp regenerates Figure 4: area (top) and energy (bottom) scalability
// of prior directory organizations, Private-L2 axis labelling ("2 caches
// per core [I+D]" — the shared-cache system's L1-tracking directory).
func fig4Exp() Experiment {
	return Experiment{
		ID:    "fig4",
		Title: "Figure 4: Area and energy scalability of prior directory organizations",
		Expect: "Duplicate-Tag and Tagless energy grow ~linearly per core (quadratic aggregate); " +
			"Tagless and Duplicate-Tag area stay flat and small; Sparse 8x full-vector grows linearly in " +
			"both; Sparse 8x Coarse/Hierarchical energy/area stay nearly flat but area sits high (8x " +
			"over-provisioning); In-Cache area grows linearly, crossing the Sparse variants near ~128 cores.",
		Run: func(o Options) ([]*stats.Table, error) {
			lineup := energy.Figure4Lineup()
			mk := energy.SharedL2System
			return []*stats.Table{
				projectionTable("Figure 4 (top): directory area per core vs core count (2 caches/core I+D)",
					"% of 1MB L2 data array area", lineup, mk,
					func(e energy.Estimate) float64 { return e.AreaPerCore }),
				projectionTable("Figure 4 (bottom): directory energy per operation vs core count (2 caches/core I+D)",
					"% of 1MB 16-way L2 tag lookup energy", lineup, mk,
					func(e energy.Estimate) float64 { return e.EnergyPerOp }),
			}, nil
		},
	}
}

// fig13Exp regenerates Figure 13: the full power/area comparison including
// the Cuckoo variants, for both configurations.
func fig13Exp() Experiment {
	return Experiment{
		ID:    "fig13",
		Title: "Figure 13: Power and area comparison of directory organizations (incl. Cuckoo)",
		Expect: "Cuckoo Coarse/Hierarchical: flat, low energy at all core counts; area rivaling " +
			"Duplicate-Tag/Tagless and ~7x below Sparse 8x Coarse/Hierarchical; Tagless energy overtakes " +
			"everything beyond ~128 cores; In-Cache (Shared-L2 only) area explodes past ~128 cores. " +
			"Shared-L2 Cuckoo area < 3% of L2 at 1024 cores; Private-L2 < 30%.",
		Run: func(o Options) ([]*stats.Table, error) {
			var out []*stats.Table
			for _, shared := range []bool{true, false} {
				label := "Shared-L2 (2 caches per core [I+D])"
				mk := energy.SharedL2System
				if !shared {
					label = "Private-L2 (1 cache per core)"
					mk = energy.PrivateL2System
				}
				lineup := energy.Figure13Lineup(shared)
				out = append(out,
					projectionTable("Figure 13: energy per op, "+label,
						"% of 1MB 16-way L2 tag lookup energy", lineup, mk,
						func(e energy.Estimate) float64 { return e.EnergyPerOp }),
					projectionTable("Figure 13: area per core, "+label,
						"% of 1MB L2 data array area", lineup, mk,
						func(e energy.Estimate) float64 { return e.AreaPerCore }),
				)
			}
			return out, nil
		},
	}
}
