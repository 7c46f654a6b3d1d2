package exp

import (
	"fmt"
	"strings"

	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/sharer"
	"cuckoodir/internal/stats"
	"cuckoodir/internal/workload"
)

// formatsExp quantifies the §6 claim that the Cuckoo organization composes
// with any entry-compression technique: the same 4x512 Shared-L2 Cuckoo
// directory runs with full-vector, coarse, limited-pointer and
// hierarchical entries, and the experiment reports what each compressed
// format costs in spurious invalidation traffic and dead-entry residency
// against the storage it saves.
func formatsExp() Experiment {
	return Experiment{
		ID:    "formats",
		Title: "§6 extension: sharer-set formats inside the Cuckoo directory",
		Expect: "Full vectors: exact, zero spurious invalidations, linear storage. Coarse (2*log2 C " +
			"bits) and limited pointers: large storage savings, paid for with spurious invalidations on " +
			"widely-shared blocks and entries that outlive their sharers. Hierarchical: exact at " +
			"sqrt-scaled root cost plus replicated second-level tags.",
		Run: func(o Options) ([]*stats.Table, error) {
			cfg := cmpsim.DefaultConfig(cmpsim.SharedL2)
			size := cmpsim.ChosenCuckooSize(cmpsim.SharedL2)
			numCaches := cfg.NumCaches()
			formats := []sharer.Format{
				sharer.FullFormat(),
				sharer.CoarseFormat(),
				sharer.LimitedFormat(4),
				sharer.HierFormat(),
			}
			// The format sweep's base organization(s): the paper's chosen
			// 4x512 slice by default, or — under `run -dir` — every named
			// organization that can carry a sharer format (a plain,
			// unsharded cuckoo spec without a format of its own).
			bases := []namedSpec{{"", size.Spec()}}
			var skipped []string
			overridden := false
			over, err := orgOverrides(o, cfg.CheckSlice)
			if err != nil {
				return nil, err
			}
			if over != nil {
				overridden = true
				bases = bases[:0]
				for _, ns := range over {
					if ns.spec.Org != directory.OrgCuckoo || ns.spec.Shard.Count > 0 || ns.spec.Format.New != nil {
						skipped = append(skipped, ns.name)
						continue
					}
					bases = append(bases, ns)
				}
			}
			headers := []string{"Format", "Entry bits", "Spurious invalidations", "Spurious/insert", "Dead entries (end)", "Inval rate"}
			title := "Sharer-set formats in a 4x512 Cuckoo directory (Shared-L2, workload apache)"
			if overridden {
				headers = append([]string{"Organization"}, headers...)
				title = "Sharer-set formats swept over -dir organizations (Shared-L2, workload apache)"
			}
			t := stats.NewTable(title, headers...)
			prof, err := workload.ByName("apache")
			if err != nil {
				panic(err)
			}
			type result struct {
				spurious uint64
				dead     int
				ds       *directory.Stats
			}
			results := parallelMap(len(bases)*len(formats), func(i int) result {
				spec := bases[i/len(formats)].spec
				spec.Format = formats[i%len(formats)]
				sys := runSystem(cfg, prof, o, spec)
				var res result
				for _, d := range sys.Slices() {
					fd := d.(*directory.FormattedCuckoo)
					res.spurious += fd.SpuriousInvalidations
					res.dead += fd.DeadEntries()
				}
				res.ds = sys.DirStats()
				return res
			})
			for bi, bs := range bases {
				for fi, f := range formats {
					res := results[bi*len(formats)+fi]
					inserts := res.ds.Events[core.EvInsertTag]
					perInsert := 0.0
					if inserts > 0 {
						perInsert = float64(res.spurious) / float64(inserts)
					}
					row := []string{f.Name,
						fmt.Sprintf("%d", f.BitsFor(numCaches)),
						fmt.Sprintf("%d", res.spurious),
						fmt.Sprintf("%.4f", perInsert),
						fmt.Sprintf("%d", res.dead),
						pctCell(res.ds.InvalidationRate())}
					if overridden {
						row = append([]string{bs.name}, row...)
					}
					t.AddRow(row...)
				}
			}
			t.AddNote("entry bits exclude the tag; hierarchical second-level storage is counted by the energy model")
			if len(skipped) > 0 {
				t.AddNote("skipped -dir organizations that cannot carry a sharer format (need a plain unsharded cuckoo spec): %s",
					strings.Join(skipped, ", "))
			}
			if len(bases) == 0 {
				t.AddNote("no eligible -dir organization: nothing measured")
			}
			return []*stats.Table{t}, nil
		},
	}
}
