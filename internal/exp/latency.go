package exp

import (
	"fmt"

	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/coherence"
	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/stats"
	"cuckoodir/internal/workload"
)

// latencyExp exercises §4.2's timing claim on the event-driven MESI
// protocol: Cuckoo insertion chains occupy the directory slice for a few
// cycles after the response leaves, so the wait they impose on subsequent
// requests is negligible next to miss latency.
func latencyExp() Experiment {
	return Experiment{
		ID:    "latency",
		Title: "§4.2: Cuckoo insertion latency off the critical path (event-driven MESI, 16 cores)",
		Expect: "Average insertion occupancy is ~1-2 cycles per insert; the added request wait is a " +
			"tiny fraction (<1%) of average miss latency, for both an ideal directory and the Cuckoo " +
			"directory — 'no measurable impact on performance'.",
		Run: func(o Options) ([]*stats.Table, error) {
			accesses := uint64(400_000)
			warm := uint64(200_000)
			if o.Scale == Full {
				accesses, warm = 1_500_000, 750_000
			}
			prof, err := workload.ByName("oracle")
			if err != nil {
				panic(err)
			}
			t := stats.NewTable("Protocol timing (Private-L2-style, 16 cores, 4x4 mesh, workload oracle)",
				"Directory", "Avg miss latency (cyc)", "Insert busy cyc/insert",
				"Insert wait cyc/request", "Wait % of miss latency", "Recalls", "Invals")
			cfg := coherence.DefaultConfig()
			// The protocol caches are 1024x16 (1 MB); size the slices as
			// §5.2 selects for Private-L2 (1.5x = 3x8192 at 16 cores).
			runs, err := orgOverrides(o, cfg.CheckSlice)
			if err != nil {
				return nil, err
			}
			if runs == nil {
				runs = []namedSpec{
					{"ideal", directory.Spec{Org: directory.OrgIdeal, Capacity: 16384}},
					{"cuckoo 3x8192 (1.5x)", cmpsim.ChosenCuckooSize(cmpsim.PrivateL2).Spec()},
				}
			}
			systems := parallelMap(len(runs), func(i int) *coherence.System {
				sys, err := coherence.New(cfg, prof, o.Seed+7, runs[i].spec)
				if err != nil {
					panic(err) // a broken built-in lineup, as in runSystem
				}
				sys.Run(warm)
				sys.ResetStats()
				sys.Run(accesses)
				return sys
			})
			for ri, r := range runs {
				sys := systems[ri]
				ds := sys.DirStats()
				fs := sys.DirectoryStats()
				inserts := fs.Events[core.EvInsertTag]
				perInsert := 0.0
				if inserts > 0 {
					perInsert = float64(ds.InsertBusyCycles) / float64(inserts)
				}
				perReq := 0.0
				if ds.Requests > 0 {
					perReq = float64(ds.InsertWaitCycles) / float64(ds.Requests)
				}
				miss := sys.AvgMissLatency()
				waitPct := 0.0
				if miss > 0 {
					waitPct = perReq / miss * 100
				}
				t.AddRow(r.name,
					fmt.Sprintf("%.1f", miss),
					fmt.Sprintf("%.2f", perInsert),
					fmt.Sprintf("%.4f", perReq),
					fmt.Sprintf("%.3f%%", waitPct),
					fmt.Sprintf("%d", ds.Recalls),
					fmt.Sprintf("%d", ds.Invalidations))
			}
			t.AddNote("insert wait = cycles requests spent waiting for a preceding insertion's displacement writes")
			return []*stats.Table{t}, nil
		},
	}
}
