package exp

import (
	"fmt"
	"math"

	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/plot"
	"cuckoodir/internal/stats"
	"cuckoodir/internal/workload"
)

// fig8Exp measures average directory occupancy per workload (Figure 8),
// using the unbounded exact directory so occupancy reflects the true
// distinct-block count against the 1x capacity.
func fig8Exp() Experiment {
	return Experiment{
		ID:    "fig8",
		Title: "Figure 8: Average directory occupancy",
		Expect: "Shared-L2 occupancy sits well below 1x for every workload (sharing of code and data " +
			"shrinks the distinct-block count), so no over-provisioning is needed; Private-L2 occupancy " +
			"is higher, with DSS and scientific workloads dominated by private footprints and ocean " +
			"near 100% unique blocks.",
		Run: func(o Options) ([]*stats.Table, error) {
			t := stats.NewTable("Figure 8: average directory occupancy (fraction of 1x capacity)",
				"Workload", "Class", "Shared L2", "Private L2")
			profs := suiteProfiles(o.Scale)
			kinds := []cmpsim.Kind{cmpsim.SharedL2, cmpsim.PrivateL2}
			occ := parallelMap(len(profs)*len(kinds), func(i int) float64 {
				prof, kind := profs[i/len(kinds)], kinds[i%len(kinds)]
				cfg := cmpsim.DefaultConfig(kind)
				sys := runSystem(cfg, prof, o, cfg.IdealSpec())
				return sys.MeanOccupancy()
			})
			for pi, prof := range profs {
				t.AddRow(prof.Name, prof.Class,
					fmt.Sprintf("%.1f%%", occ[pi*2]*100),
					fmt.Sprintf("%.1f%%", occ[pi*2+1]*100))
			}
			return []*stats.Table{t}, nil
		},
	}
}

// fig9Exp sweeps Cuckoo directory sizes from over- to under-provisioned
// (Figure 9) and reports suite-average insertion attempts and forced
// invalidation rates.
func fig9Exp() Experiment {
	return Experiment{
		ID:    "fig9",
		Title: "Figure 9: Cuckoo directory insertion attempts and failure rates vs provisioning",
		Expect: "Under-provisioning (factor < 1x) causes an exponential increase in insertion attempts " +
			"and forced invalidations; Shared-L2 needs no over-provisioning (1x = 4x512 suffices); " +
			"Private-L2 needs a modest 1.5x (3x8192).",
		Run: func(o Options) ([]*stats.Table, error) {
			shared, private := cmpsim.DefaultConfig(cmpsim.SharedL2), cmpsim.DefaultConfig(cmpsim.PrivateL2)
			over, err := orgOverrides(o, shared.CheckSlice, private.CheckSlice)
			if err != nil {
				return nil, err
			}
			var out []*stats.Table
			for _, kind := range []cmpsim.Kind{cmpsim.SharedL2, cmpsim.PrivateL2} {
				cfg := cmpsim.DefaultConfig(kind)
				// A sweep point: its row label, provisioning factor cell
				// (computed from slice capacity for overridden orgs) and
				// slice spec.
				type sizePoint struct {
					label string
					prov  string
					spec  directory.Spec
				}
				var points []sizePoint
				if over != nil {
					// Registry-driven sweep: provision factors come from
					// each organization's built capacity relative to the
					// configuration's 1x baseline. Only one unsharded
					// slice is built for the probe (sharded capacity is
					// Count x the slice's — no need to allocate the
					// whole sharded array just to read it).
					for _, ns := range over {
						inner := ns.spec
						shards := inner.Shard.Count
						inner.Shard = directory.ShardSpec{}
						c := directory.MustBuild(inner.WithCaches(cfg.NumCaches())).Capacity()
						if shards > 0 {
							c *= shards
						}
						prov := "unbounded"
						if c > 0 {
							prov = fmt.Sprintf("%.3gx", float64(c)/float64(cfg.OneXSliceCapacity()))
						}
						points = append(points, sizePoint{ns.name, prov, ns.spec})
					}
				} else {
					sizes := cmpsim.SharedL2Sizes()
					if kind == cmpsim.PrivateL2 {
						sizes = cmpsim.PrivateL2Sizes()
					}
					if o.Scale == Quick {
						sizes = []cmpsim.CuckooSize{sizes[1], sizes[2], sizes[4]}
					}
					for _, size := range sizes {
						points = append(points, sizePoint{
							size.String(),
							fmt.Sprintf("%.3gx", size.Provisioning(cfg)),
							size.Spec(),
						})
					}
				}
				t := stats.NewTable(fmt.Sprintf("Figure 9 (%s): Cuckoo sizing sweep", kind),
					"Size (ways x sets)", "Provisioning", "Avg insertion attempts", "Forced invalidation rate")
				profs := suiteProfiles(o.Scale)
				results := parallelMap(len(points)*len(profs), func(i int) *core.DirStats {
					pt, prof := points[i/len(profs)], profs[i%len(profs)]
					sys := runSystem(cfg, prof, o, pt.spec)
					return sys.DirStats()
				})
				xLabels := make([]string, len(points))
				attY := make([]float64, len(points))
				invY := make([]float64, len(points))
				for si, pt := range points {
					agg := core.NewDirStats(core.DefaultMaxAttempts)
					for pi := range profs {
						agg.Merge(results[si*len(profs)+pi])
					}
					t.AddRow(pt.label,
						pt.prov,
						fmt.Sprintf("%.2f", agg.Attempts.Mean()),
						pctCell(agg.InvalidationRate()))
					xLabels[si] = pt.prov
					attY[si] = agg.Attempts.Mean()
					inv := agg.InvalidationRate() * 100
					if inv == 0 {
						inv = math.NaN() // not plottable on the log axis
					}
					invY[si] = inv
				}
				ch := plot.NewChart("", xLabels)
				ch.YLabel = "A = avg insertion attempts; I = forced invalidation % (log-plotted together)"
				ch.LogY = true
				ch.Add("attempts", 'A', attY)
				ch.Add("invalidation %", 'I', invY)
				t.AddChart(ch.String())
				out = append(out, t)
			}
			return out, nil
		},
	}
}

// fig10Exp reports per-workload average insertion attempts at the chosen
// sizes (Figure 10).
func fig10Exp() Experiment {
	return Experiment{
		ID:    "fig10",
		Title: "Figure 10: Cuckoo directory average insertion attempts (chosen sizes)",
		Expect: "Typically below 2 attempts — a vacant location is usually found during the initial " +
			"lookup; workloads with more private blocks (DSS, ocean) average somewhat higher.",
		Run: func(o Options) ([]*stats.Table, error) {
			t := stats.NewTable("Figure 10: average insertion attempts (Shared-L2 4x512, Private-L2 3x8192)",
				"Workload", "Class", "Shared L2", "Private L2")
			profs := suiteProfiles(o.Scale)
			kinds := []cmpsim.Kind{cmpsim.SharedL2, cmpsim.PrivateL2}
			means := parallelMap(len(profs)*len(kinds), func(i int) float64 {
				prof, kind := profs[i/len(kinds)], kinds[i%len(kinds)]
				cfg := cmpsim.DefaultConfig(kind)
				sys := runSystem(cfg, prof, o, cmpsim.ChosenCuckooSize(kind).Spec())
				return sys.DirStats().Attempts.Mean()
			})
			for pi, prof := range profs {
				t.AddRow(prof.Name, prof.Class,
					fmt.Sprintf("%.2f", means[pi*2]),
					fmt.Sprintf("%.2f", means[pi*2+1]))
			}
			return []*stats.Table{t}, nil
		},
	}
}

// fig11Exp reports the insertion-attempt distributions of the worst-case
// workloads (Figure 11): oracle on Shared-L2 and ocean on Private-L2.
func fig11Exp() Experiment {
	return Experiment{
		ID:    "fig11",
		Title: "Figure 11: Worst-case insertion attempt distributions",
		Expect: "Monotonically decaying distribution — each additional attempt exponentially less " +
			"likely; most insertions (paper: 85% oracle, 73% ocean) need exactly one attempt; no mass " +
			"at the 32-attempt cap (no loops).",
		Run: func(o Options) ([]*stats.Table, error) {
			t := stats.NewTable("Figure 11: insertion attempt distribution (percent of insert operations)",
				"Attempts", "oracle (Shared L2)", "ocean (Private L2)")
			type point struct {
				kind cmpsim.Kind
				wl   string
			}
			points := []point{{cmpsim.SharedL2, "oracle"}, {cmpsim.PrivateL2, "ocean"}}
			collected := parallelMap(len(points), func(i int) *core.DirStats {
				pt := points[i]
				cfg := cmpsim.DefaultConfig(pt.kind)
				prof, err := workload.ByName(pt.wl)
				if err != nil {
					panic(err)
				}
				sys := runSystem(cfg, prof, o, cmpsim.ChosenCuckooSize(pt.kind).Spec())
				return sys.DirStats()
			})
			oracle, ocean := collected[0], collected[1]
			for a := 1; a <= core.DefaultMaxAttempts; a++ {
				t.AddRow(fmt.Sprintf("%d", a),
					pctCell(oracle.Attempts.Fraction(a)),
					pctCell(ocean.Attempts.Fraction(a)))
			}
			t.AddNote("fraction at 1 attempt: oracle %.1f%%, ocean %.1f%% (paper: 85%%, 73%%)",
				oracle.Attempts.Fraction(1)*100, ocean.Attempts.Fraction(1)*100)
			return []*stats.Table{t}, nil
		},
	}
}

// fig12Exp compares forced-invalidation rates across directory
// organizations (Figure 12).
func fig12Exp() Experiment {
	return Experiment{
		ID:    "fig12",
		Title: "Figure 12: Directory invalidation rates (Sparse 2x, Sparse 8x, Skewed 2x, Cuckoo)",
		Expect: "Sparse 2x conflicts heavily on nearly all workloads; Skewed 2x reduces server-workload " +
			"invalidations but not scientific ones; Sparse 8x still leaves significant rates for many " +
			"workloads; the Cuckoo directory — with LESS capacity and associativity — is near zero " +
			"everywhere (ocean at 1.5x Private-L2 shows a small residue, paper: 0.08%).",
		Run: func(o Options) ([]*stats.Table, error) {
			shared, private := cmpsim.DefaultConfig(cmpsim.SharedL2), cmpsim.DefaultConfig(cmpsim.PrivateL2)
			over, err := orgOverrides(o, shared.CheckSlice, private.CheckSlice)
			if err != nil {
				return nil, err
			}
			var out []*stats.Table
			for _, kind := range []cmpsim.Kind{cmpsim.SharedL2, cmpsim.PrivateL2} {
				cfg := cmpsim.DefaultConfig(kind)
				// Under `run -dir` the lineup is exactly the named
				// organizations, in order.
				orgs := over
				if orgs == nil {
					cuckooName := "Cuckoo 1x"
					if kind == cmpsim.PrivateL2 {
						cuckooName = "Cuckoo 1.5x"
					}
					orgs = []namedSpec{
						{"Sparse 2x", cfg.SparseSpec(8, 2)},
						{"Sparse 8x", cfg.SparseSpec(8, 8)},
						{"Skewed 2x", cfg.SkewedSpec(4, 2)},
						{cuckooName, cmpsim.ChosenCuckooSize(kind).Spec()},
					}
				}
				headers := []string{"Workload"}
				for _, org := range orgs {
					headers = append(headers, org.name)
				}
				t := stats.NewTable(fmt.Sprintf("Figure 12 (%s): invalidation rate (%% of directory insertions)", kind),
					headers...)
				profs := suiteProfiles(o.Scale)
				rates := parallelMap(len(profs)*len(orgs), func(i int) float64 {
					prof, org := profs[i/len(orgs)], orgs[i%len(orgs)]
					sys := runSystem(cfg, prof, o, org.spec)
					return sys.DirStats().InvalidationRate()
				})
				for pi, prof := range profs {
					row := []string{prof.Name}
					for oi := range orgs {
						row = append(row, pctCell(rates[pi*len(orgs)+oi]))
					}
					t.AddRow(row...)
				}
				out = append(out, t)
			}
			return out, nil
		},
	}
}

// mixExp measures the directory event mix (§5.6 footnote) on the chosen
// Cuckoo configurations across the suite.
func mixExp() Experiment {
	return Experiment{
		ID:    "mix",
		Title: "§5.6 footnote: directory event mix",
		Expect: "Roughly balanced insert/remove-tag (every tracked block enters and leaves) and " +
			"add/remove-sharer pairs, with a small invalidate-all fraction. Paper: insert 23.5%, add " +
			"sharer 26.9%, remove sharer 24.9%, remove tag 23.5%, invalidate 1.2%.",
		Run: func(o Options) ([]*stats.Table, error) {
			paper := [core.NumEvents]float64{
				core.EvInsertTag:    0.235,
				core.EvAddSharer:    0.269,
				core.EvRemoveSharer: 0.249,
				core.EvRemoveTag:    0.235,
				core.EvInvalidate:   0.012,
			}
			t := stats.NewTable("Directory event mix (suite aggregate, chosen Cuckoo sizes)",
				"Event", "Shared L2", "Private L2", "Paper")
			profs := suiteProfiles(o.Scale)
			kinds := []cmpsim.Kind{cmpsim.SharedL2, cmpsim.PrivateL2}
			results := parallelMap(len(kinds)*len(profs), func(i int) *directory.Stats {
				kind, prof := kinds[i/len(profs)], profs[i%len(profs)]
				cfg := cmpsim.DefaultConfig(kind)
				sys := runSystem(cfg, prof, o, cmpsim.ChosenCuckooSize(kind).Spec())
				return sys.DirStats()
			})
			mixes := make(map[cmpsim.Kind]*directory.Stats)
			for ki, kind := range kinds {
				agg := core.NewDirStats(core.DefaultMaxAttempts)
				for pi := range profs {
					agg.Merge(results[ki*len(profs)+pi])
				}
				mixes[kind] = agg
			}
			for ev := range core.NumEvents {
				row := []string{ev.String()}
				for _, kind := range []cmpsim.Kind{cmpsim.SharedL2, cmpsim.PrivateL2} {
					counts := &mixes[kind].Events
					fr := 0.0
					if total := counts.Total(); total > 0 {
						fr = float64(counts[ev]) / float64(total)
					}
					row = append(row, fmt.Sprintf("%.1f%%", fr*100))
				}
				row = append(row, fmt.Sprintf("%.1f%%", paper[ev]*100))
				t.AddRow(row...)
			}
			return []*stats.Table{t}, nil
		},
	}
}
