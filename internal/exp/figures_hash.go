package exp

import (
	"fmt"
	"math"
	"math/bits"

	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/hashfn"
	"cuckoodir/internal/plot"
	"cuckoodir/internal/rng"
	"cuckoodir/internal/stats"
	"cuckoodir/internal/workload"
)

// fig7Sets sizes each d-ary table to ~32K entries so a fixed key budget
// sweeps the whole occupancy range (the curves are capacity-independent).
func fig7Sets(ways int) int {
	switch ways {
	case 2:
		return 16384
	case 3:
		return 8192
	case 4:
		return 8192
	case 8:
		return 4096
	default:
		sets := 32768 / ways
		return 1 << uint(bits.Len(uint(sets-1))-1)
	}
}

// fig7Exp regenerates Figure 7: d-ary cuckoo hash characteristics as a
// function of occupancy, with strong hash functions.
func fig7Exp() Experiment {
	return Experiment{
		ID:    "fig7",
		Title: "Figure 7: Cuckoo hash characteristics (insertion attempts, failure probability vs occupancy)",
		Expect: "Below 50% occupancy, 3-ary and wider tables average <= 2 attempts (success on the " +
			"initial lookup or one displacement); up to 65% occupancy they see zero insertion failures. " +
			"2-ary degrades much earlier (threshold ~50%).",
		Run: func(o Options) ([]*stats.Table, error) {
			keys := 100000
			if o.Scale == Quick {
				keys = 50000
			}
			degrees := []int{2, 3, 4, 8}
			results := make(map[int][]core.OccupancyBin)
			for _, d := range degrees {
				results[d] = core.Characterize(core.CharacterizeConfig{
					Ways:       d,
					SetsPerWay: fig7Sets(d),
					Keys:       keys * 2, // sweep past the load threshold
					Bins:       20,
					Seed:       o.Seed + uint64(d),
					Hash:       hashfn.Strong{},
				})
			}
			att := stats.NewTable("Figure 7 (left): average insertion attempts vs occupancy",
				"Occupancy", "2-ary", "3-ary", "4-ary", "8-ary")
			fail := stats.NewTable("Figure 7 (right): insertion failure probability vs occupancy",
				"Occupancy", "2-ary", "3-ary", "4-ary", "8-ary")
			for bin := 0; bin < 20; bin++ {
				occ := fmt.Sprintf("%.2f", float64(bin+1)/20)
				attRow, failRow := []string{occ}, []string{occ}
				for _, d := range degrees {
					b := results[d][bin]
					if b.Insertions == 0 {
						attRow = append(attRow, "-")
						failRow = append(failRow, "-")
						continue
					}
					attRow = append(attRow, fmt.Sprintf("%.2f", b.MeanAttempts))
					failRow = append(failRow, pctCell(b.FailureProb))
				}
				att.AddRow(attRow...)
				fail.AddRow(failRow...)
			}
			att.AddNote("%d random keys per degree, strong (avalanche) hash functions, 32-attempt cap", keys*2)
			fail.AddNote("'-' marks occupancy bins the structure never reached (insertions saturate below 100%%)")

			// Attach the paper's two curves as charts.
			xLabels := make([]string, 20)
			attY := map[int][]float64{}
			failY := map[int][]float64{}
			for _, d := range degrees {
				attY[d] = make([]float64, 20)
				failY[d] = make([]float64, 20)
			}
			for bin := 0; bin < 20; bin++ {
				xLabels[bin] = fmt.Sprintf("%.2f", float64(bin+1)/20)
				for _, d := range degrees {
					b := results[d][bin]
					if b.Insertions == 0 {
						attY[d][bin] = math.NaN()
						failY[d][bin] = math.NaN()
						continue
					}
					attY[d][bin] = b.MeanAttempts
					failY[d][bin] = b.FailureProb * 100
				}
			}
			markers := map[int]rune{2: '2', 3: '3', 4: '4', 8: '8'}
			attCh := plot.NewChart("", xLabels)
			attCh.YLabel = "average insertion attempts"
			failCh := plot.NewChart("", xLabels)
			failCh.YLabel = "insertion failure probability (%)"
			for _, d := range degrees {
				attCh.Add(fmt.Sprintf("%d-ary", d), markers[d], attY[d])
				failCh.Add(fmt.Sprintf("%d-ary", d), markers[d], failY[d])
			}
			att.AddChart(attCh.String())
			fail.AddChart(failCh.String())
			return []*stats.Table{att, fail}, nil
		},
	}
}

// hashesExp reproduces §5.5 (hash function selection): skewing vs strong
// families across provisioning factors, on the workloads where the paper
// reports differences (ocean on Private-L2, plus the Shared-L2 worst case
// oracle).
func hashesExp() Experiment {
	return Experiment{
		ID:    "hashes",
		Title: "§5.5: Hash function selection (skewing vs strong families)",
		Expect: "No measurable difference at comfortable provisioning; strong hashes offer the most " +
			"benefit under adverse conditions — the paper sees it under severe under-provisioning; here " +
			"the sharpest adverse case is UNSCATTERED (physically contiguous) addresses, where the linear " +
			"skewing functions form translation-invariant conflict groups and thrash while strong hashes " +
			"stay near one attempt. The OS's page scatter is what keeps skewing viable in practice.",
		Run: func(o Options) ([]*stats.Table, error) {
			t := stats.NewTable("Hash family comparison",
				"Config", "Workload", "Size", "Prov", "Addresses", "Hash", "Avg attempts", "Inval rate")
			type point struct {
				kind  cmpsim.Kind
				wl    string
				size  cmpsim.CuckooSize
				paged bool
			}
			points := []point{
				{cmpsim.SharedL2, "oracle", cmpsim.CuckooSize{Ways: 4, Sets: 512}, true},
				{cmpsim.SharedL2, "oracle", cmpsim.CuckooSize{Ways: 4, Sets: 256}, true},
				{cmpsim.SharedL2, "oracle", cmpsim.CuckooSize{Ways: 3, Sets: 256}, true},
				{cmpsim.PrivateL2, "ocean", cmpsim.CuckooSize{Ways: 3, Sets: 8192}, true},
				{cmpsim.PrivateL2, "ocean", cmpsim.CuckooSize{Ways: 3, Sets: 4096}, true},
				{cmpsim.PrivateL2, "ocean", cmpsim.CuckooSize{Ways: 3, Sets: 2048}, true},
				// Adverse case: raw contiguous (unpaged) addresses.
				{cmpsim.SharedL2, "oracle", cmpsim.CuckooSize{Ways: 4, Sets: 512}, false},
				{cmpsim.PrivateL2, "ocean", cmpsim.CuckooSize{Ways: 3, Sets: 8192}, false},
			}
			if o.Scale == Quick {
				points = []point{points[0], points[2], points[3], points[5], points[6], points[7]}
			}
			families := []string{"skew", "strong"}
			results := parallelMap(len(points)*len(families), func(i int) *core.DirStats {
				pt, hname := points[i/len(families)], families[i%len(families)]
				cfg := cmpsim.DefaultConfig(pt.kind)
				prof, err := workload.ByName(pt.wl)
				if err != nil {
					panic(err)
				}
				prof.DisablePaging = !pt.paged
				var fam hashfn.Family
				if hname == "skew" {
					fam = hashfn.NewSkew(bits.TrailingZeros(uint(pt.size.Sets)))
				} else {
					fam = hashfn.Strong{}
				}
				spec := pt.size.Spec()
				spec.Cuckoo.Hash = fam
				sys := runSystem(cfg, prof, o, spec)
				return sys.DirStats()
			})
			for pi, pt := range points {
				cfg := cmpsim.DefaultConfig(pt.kind)
				addrs := "paged"
				if !pt.paged {
					addrs = "contiguous"
				}
				for fi, hname := range families {
					ds := results[pi*len(families)+fi]
					t.AddRow(pt.kind.String(), pt.wl, pt.size.String(),
						fmt.Sprintf("%.3gx", pt.size.Provisioning(cfg)),
						addrs, hname,
						fmt.Sprintf("%.2f", ds.Attempts.Mean()),
						pctCell(ds.InvalidationRate()))
				}
			}
			return []*stats.Table{t}, nil
		},
	}
}

// ablationExp runs the §6 design ablations on the raw hash structure:
// bucketized ways (Panigrahy) and a victim stash (Kirsch et al.).
func ablationExp() Experiment {
	return Experiment{
		ID:    "ablation",
		Title: "§6 ablations: bucketized ways and victim stash",
		Expect: "Bucketizing raises the usable occupancy of a 3-ary table toward (and past) a plain " +
			"4-ary design, 'potentially allowing a smaller and more power-efficient 3-ary design'. A " +
			"small stash absorbs rare overflows but the directory 'does not benefit from a stash' at the " +
			"paper's provisioning, because failures are already near zero. The Elbow cache (one " +
			"displacement per insertion) lands between Skewed and Cuckoo: it 'experiences more forced " +
			"invalidations than the Cuckoo directory'.",
		Run: func(o Options) ([]*stats.Table, error) {
			keys := 90000
			if o.Scale == Quick {
				keys = 45000
			}
			type variant struct {
				name   string
				ways   int
				sets   int
				bucket int
				stash  int
			}
			variants := []variant{
				{"3-ary", 3, 8192, 1, 0},
				{"4-ary", 4, 8192, 1, 0},
				{"3-ary, 2-entry buckets", 3, 4096, 2, 0},
				{"3-ary + 4-entry stash", 3, 8192, 1, 4},
				{"3-ary + 16-entry stash", 3, 8192, 1, 16},
			}
			t := stats.NewTable("Cuckoo structure ablations (strong hashes)",
				"Variant", "Capacity", "Attempts@60%", "Attempts@75%", "Fail%@75%", "Fail%@90%", "Max occupancy")
			for _, v := range variants {
				bins := core.Characterize(core.CharacterizeConfig{
					Ways:       v.ways,
					SetsPerWay: v.sets,
					Keys:       keys,
					Bins:       20,
					Seed:       o.Seed + 99,
					Hash:       hashfn.Strong{},
					BucketSize: v.bucket,
					StashSize:  v.stash,
				})
				att := func(occ float64) string {
					b := bins[int(occ*20)-1]
					if b.Insertions == 0 {
						return "-"
					}
					return fmt.Sprintf("%.2f", b.MeanAttempts)
				}
				failAt := func(occ float64) string {
					b := bins[int(occ*20)-1]
					if b.Insertions == 0 {
						return "-"
					}
					return pctCell(b.FailureProb)
				}
				maxOcc := 0.0
				for _, b := range bins {
					if b.Insertions > 0 {
						maxOcc = b.Occupancy
					}
				}
				t.AddRow(v.name,
					fmt.Sprintf("%d", v.ways*v.sets*max(1, v.bucket)),
					att(0.60), att(0.75), failAt(0.75), failAt(0.90),
					fmt.Sprintf("%.2f", maxOcc))
			}
			return []*stats.Table{t, elbowTable(o)}, nil
		},
	}
}

// elbowTable compares displacement budgets — Skewed (0), Elbow (1),
// Cuckoo (unbounded-but-capped) — at equal geometry on random fills to
// successive occupancies.
func elbowTable(o Options) *stats.Table {
	const ways, sets = 4, 4096
	t := stats.NewTable("Displacement budget: forced evictions on a random fill (4x4096, skew hashes)",
		"Fill", "Skewed (0 displacements)", "Elbow (1)", "Cuckoo (<=32)")
	fills := []float64{0.70, 0.80, 0.90}
	type row struct{ sk, el, ck uint64 }
	rows := parallelMap(len(fills), func(i int) row {
		n := int(fills[i] * float64(ways*sets))
		drive := func(d directory.Directory) uint64 {
			r := rng.New(o.Seed + 17)
			for k := 0; k < n; k++ {
				d.Read(r.Uint64(), 0)
			}
			return d.Stats().ForcedEvictions
		}
		return row{
			sk: drive(directory.MustBuild(directory.Spec{
				Org: directory.OrgSkewed, NumCaches: 4,
				Geometry: directory.Geometry{Ways: ways, Sets: sets},
			})),
			el: drive(directory.MustBuild(directory.Spec{
				Org: directory.OrgElbow, NumCaches: 4,
				Geometry: directory.Geometry{Ways: ways, Sets: sets},
			})),
			ck: drive(directory.MustBuild(cmpsim.CuckooSize{Ways: ways, Sets: sets}.Spec().WithCaches(4))),
		}
	})
	for i, f := range fills {
		t.AddRow(fmt.Sprintf("%.0f%%", f*100),
			fmt.Sprintf("%d", rows[i].sk),
			fmt.Sprintf("%d", rows[i].el),
			fmt.Sprintf("%d", rows[i].ck))
	}
	t.AddNote("each extra displacement of budget cuts forced evictions by an order of magnitude (paper §6 on Elbow caches)")
	return t
}
