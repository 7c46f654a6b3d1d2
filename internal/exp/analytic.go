package exp

import (
	"fmt"

	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/hashfn"
	"cuckoodir/internal/model"
	"cuckoodir/internal/rng"
	"cuckoodir/internal/stats"
)

// analyticExp cross-validates the closed-form conflict models against
// Monte Carlo measurements — the "why" behind the paper's headline
// numbers: a Sparse directory's set conflicts start at a fraction of its
// capacity (hence 8x over-provisioning), while the Cuckoo organization is
// reliable to its cuckoo-hashing load threshold (hence 1x-1.5x).
func analyticExp() Experiment {
	return Experiment{
		ID:    "analytic",
		Title: "Analytic conflict models vs Monte Carlo (Sparse overflow, Cuckoo thresholds)",
		Expect: "Sparse overflow follows the Poisson balls-in-bins tail: conflicts appear well below " +
			"full capacity, so avoiding them needs multi-x over-provisioning. The Cuckoo directory is " +
			"reliable to its load threshold minus the attempt-cap discount (~0.78 for 3-ary, ~0.82 for " +
			"4-ary at 32 attempts), which is why 1x-1.5x provisioning suffices.",
		Run: func(o Options) ([]*stats.Table, error) {
			const sets, assoc = 1024, 8
			sparse := stats.NewTable("Sparse 8-way set overflow: Poisson model vs randomized fill",
				"Occupancy", "Model overflow", "Measured overflow")
			samples := 1
			if o.Scale == Full {
				samples = 5
			}
			for _, occ := range []float64{0.25, 0.5, 0.75, 1.0, 1.25} {
				entries := int(occ * float64(sets*assoc))
				var measured float64
				for s := 0; s < samples; s++ {
					d := directory.MustBuild(directory.Spec{
						Org: directory.OrgSparse, NumCaches: 4,
						Geometry: directory.Geometry{Ways: assoc, Sets: sets},
					})
					r := rng.New(o.Seed + uint64(s)*31 + uint64(entries))
					var forced uint64
					for i := 0; i < entries; i++ {
						op := d.Read(r.Uint64(), 0)
						forced += uint64(len(op.Forced))
					}
					measured += float64(forced) / float64(entries)
				}
				measured /= float64(samples)
				sparse.AddRow(fmt.Sprintf("%.2f", occ),
					pctCell(model.SparseOverflow(entries, sets, assoc)),
					pctCell(measured))
			}
			sparse.AddNote("randomized static fill; workload dynamics only add to the static overflow")

			ck := stats.NewTable("Cuckoo reliable occupancy: threshold theory vs Monte Carlo (32-attempt cap)",
				"Ways", "Load threshold", "Analytic reliable", "Measured failure-free", "Provisioning needed")
			keys := 60000
			if o.Scale == Full {
				keys = 150000
			}
			for _, d := range []int{2, 3, 4, 8} {
				bins := core.Characterize(core.CharacterizeConfig{
					Ways:       d,
					SetsPerWay: 8192,
					Keys:       keys,
					Bins:       50,
					Seed:       o.Seed + 5,
					Hash:       hashfn.Strong{},
				})
				measured := 0.0
				for _, b := range bins {
					if b.Insertions < 50 {
						continue
					}
					if b.FailureProb >= 0.01 {
						break
					}
					measured = b.Occupancy
				}
				analytic := model.CuckooReliableOccupancy(d, core.DefaultMaxAttempts)
				ck.AddRow(fmt.Sprintf("%d", d),
					fmt.Sprintf("%.3f", core.LoadThreshold(d)),
					fmt.Sprintf("%.3f", analytic),
					fmt.Sprintf("%.2f", measured),
					fmt.Sprintf("%.1fx", model.RequiredProvisioning(analytic)))
			}
			ck.AddNote("Sparse 8-way stays conflict-free only to ~%.0f%% occupancy (eps 0.1%%) -> ~%.1fx over-provisioning",
				model.SparseSafeOccupancy(sets, assoc, 0.001)*100,
				model.RequiredProvisioning(model.SparseSafeOccupancy(sets, assoc, 0.001)))
			return []*stats.Table{sparse, ck}, nil
		},
	}
}
