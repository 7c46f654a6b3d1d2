package exp

import (
	"fmt"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/replay"
	"cuckoodir/internal/stats"
	"cuckoodir/internal/workload"
)

// replayRow is one configuration of the replay-throughput sweep.
type replayRow struct {
	shards    int
	home      directory.Home
	via       replay.Via
	workers   int // ViaApplyShard worker count
	producers int // ViaEngine producer count
}

// replayThroughputExp is the replay-throughput experiment: unlike every
// other id it measures THIS IMPLEMENTATION (the sharded front-end and
// its two submission paths), not a paper artifact — it exists so the
// sharded sweep lands in EXPERIMENTS.md tables the same way the paper
// artifacts do. Absolute acc/s is host-dependent; the comparisons that
// travel are the ratios between rows of one run.
func replayThroughputExp() Experiment {
	return Experiment{
		ID: "replay",
		Title: "Sharded replay throughput: shards x workers x home function, " +
			"engine vs direct submission (implementation artifact)",
		Expect: "Sharding beats one slice; single-producer engine submission lands within ~20% of the " +
			"direct ApplyShard pipeline; multi-producer engine submission scales past the serial " +
			"producer on multi-core hosts (a 1-CPU host shows pipeline overlap only); interleave " +
			"homing shifts shard imbalance relative to the mixing hash.",
		Run: func(o Options) ([]*stats.Table, error) {
			accesses := 120_000
			if o.Scale == Full {
				accesses = 2_000_000
			}
			const cores = 16
			prof, err := workload.ByName("oracle")
			if err != nil {
				panic(err)
			}
			inner := []namedSpec{{
				name: "cuckoo-4x4096",
				spec: directory.Spec{Org: directory.OrgCuckoo, Geometry: directory.Geometry{Ways: 4, Sets: 4096}},
			}}
			over, err := orgOverrides(o, func(s directory.Spec) error { return s.WithCaches(cores).Validate() })
			if err != nil {
				return nil, err
			}
			if over != nil {
				inner = over
			}
			rows := []replayRow{
				{shards: 1, home: directory.HomeMix, via: replay.ViaApplyShard, workers: 1},
				{shards: 8, home: directory.HomeMix, via: replay.ViaApplyShard, workers: 1},
				{shards: 8, home: directory.HomeMix, via: replay.ViaApplyShard, workers: 4},
				{shards: 8, home: directory.HomeMix, via: replay.ViaEngine, producers: 1},
				{shards: 8, home: directory.HomeMix, via: replay.ViaEngine, producers: 4},
				{shards: 8, home: directory.HomeInterleave, via: replay.ViaApplyShard, workers: 4},
				{shards: 8, home: directory.HomeInterleave, via: replay.ViaEngine, producers: 4},
			}
			t := stats.NewTable(
				fmt.Sprintf("Sharded replay throughput (workload oracle, %d accesses, %d cores; runs are sequential so rows don't contend)",
					accesses, cores),
				"Organization", "Shards", "Home", "Path", "Prod", "Workers",
				"kacc/s", "Occupancy", "Imbalance", "Avg attempts")
			for _, ns := range inner {
				if ns.spec.Shard.Count > 0 {
					t.AddNote("%s: skipped — name the inner (unsharded) organization; the sweep applies its own shard counts", ns.name)
					continue
				}
				for _, row := range rows {
					spec := ns.spec
					spec.NumCaches = cores
					spec.Shard.Home = row.home
					dir, err := directory.BuildSharded(spec, row.shards)
					if err != nil {
						panic(fmt.Sprintf("exp: replay: %s: %v", ns.name, err))
					}
					opts := replay.Options{Workers: row.workers, Via: row.via}
					var res replay.Result
					if row.via == replay.ViaEngine && row.producers > 1 {
						srcs := make([]replay.Source, row.producers)
						for i := range srcs {
							srcs[i] = replay.Synthesize(prof, cores, o.Seed+13+uint64(i), accesses/row.producers)
						}
						res, err = replay.RunMulti(dir, srcs, opts)
					} else {
						res, err = replay.ReplayWorkload(dir, prof, cores, o.Seed+13, accesses, opts)
					}
					if err != nil {
						panic(fmt.Sprintf("exp: replay: %s: %v", ns.name, err))
					}
					producers := row.producers
					if producers == 0 {
						producers = 1
					}
					t.AddRow(ns.name,
						fmt.Sprintf("%d", row.shards),
						row.home.String(),
						row.via.String(),
						fmt.Sprintf("%d", producers),
						fmt.Sprintf("%d", res.Workers),
						fmt.Sprintf("%.0f", res.Throughput()/1e3),
						fmt.Sprintf("%.1f%%", res.Occupancy()*100),
						fmt.Sprintf("%.2fx", res.ShardImbalance()),
						fmt.Sprintf("%.2f", res.Stats.Attempts.Mean()))
				}
			}
			t.AddNote("replay feeds every record as a fill (no cache filtering) — the directory-side worst case; see DESIGN.md §6")
			t.AddNote("engine rows: Workers is the drainer count; acc/s covers submission AND completion (Close drains before the clock stops)")
			return []*stats.Table{t}, nil
		},
	}
}
