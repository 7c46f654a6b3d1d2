// Occupancy: run two Table 2 workloads on the 16-core functional CMP
// simulator in both system configurations and report directory occupancy
// and Cuckoo insertion behaviour — Figures 8 and 10 in miniature.
package main

import (
	"fmt"
	"log"

	"cuckoodir"
)

func main() {
	for _, name := range []string{"oracle", "ocean"} {
		prof, err := cuckoodir.WorkloadByName(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== workload %s (%s) ==\n", prof.Name, prof.Table2)
		for _, kind := range []cuckoodir.SystemKind{cuckoodir.SharedL2, cuckoodir.PrivateL2} {
			cfg := cuckoodir.DefaultSystemConfig(kind)

			// Pass 1: exact reference directory for true occupancy.
			ideal, err := cuckoodir.NewSystem(cfg, prof, 1, cfg.IdealSpec())
			if err != nil {
				log.Fatal(err)
			}
			ideal.Run(1_500_000)
			ideal.ResetStats()
			ideal.Run(500_000)

			// Pass 2: the Cuckoo directory at the size §5.2 selects.
			size := cuckoodir.ChosenCuckooSize(kind)
			ck, err := cuckoodir.NewSystem(cfg, prof, 1, size.Spec())
			if err != nil {
				log.Fatal(err)
			}
			ck.Run(1_500_000)
			ck.ResetStats()
			ck.Run(500_000)
			ds := ck.DirStats()

			fmt.Printf("  %-10s occupancy %5.1f%% of 1x | cuckoo %s: %.2f avg attempts, %d forced invalidations\n",
				kind, ideal.MeanOccupancy()*100, size, ds.Attempts.Mean(), ds.ForcedEvictions)
		}
	}
}
