package exp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/rng"
	"cuckoodir/internal/stats"
)

// resizeExp measures what an online per-shard resize costs the shards
// that are NOT resizing: multi-producer engine traffic runs in three
// phases — before, during and after a live migration of shard 0 — and
// each phase reports shard 0's throughput next to the other shards'.
// Like `replay` it measures THIS IMPLEMENTATION (the tentpole of the
// online-resize work), not a paper artifact; the paper's motivation is
// §4.3's point that a cuckoo directory can be provisioned lean exactly
// because it can be re-provisioned without stopping the world.
func resizeExp() Experiment {
	return Experiment{
		ID: "resize",
		Title: "Online resize: non-resizing shards' throughput through another " +
			"shard's live migration (implementation artifact)",
		Expect: "The during-migration phase completes the whole migration without stopping traffic; " +
			"the non-resizing shards' per-shard throughput stays within noise of the before/after " +
			"phases (the migration steals only shard 0's lock and its drainer's idle cycles), " +
			"and zero entries are lost to forced migration evictions.",
		Run: func(o Options) ([]*stats.Table, error) {
			perPhase := 120_000
			sets := 1024
			// The address space is sized so each shard's distinct
			// population saturates at half the GROWN table's capacity:
			// the base table is overloaded (the scenario that motivates
			// growing) while migration replays always find room, so the
			// zero-forced-migration invariant holds by construction, not
			// by scheduling luck.
			addrBits := 16
			if o.Scale == Full {
				perPhase = 2_000_000
				sets = 8192
				addrBits = 18
			}
			const (
				cores     = 16
				shards    = 8
				producers = 4
			)
			dir, err := directory.BuildSharded(directory.Spec{
				Org:       directory.OrgCuckoo,
				NumCaches: cores,
				Geometry:  directory.Geometry{Ways: 4, Sets: sets},
			}, shards)
			if err != nil {
				panic(fmt.Sprintf("exp: resize: %v", err))
			}
			eng, err := engine.New(dir, engine.Options{MigrationRun: 64})
			if err != nil {
				panic(fmt.Sprintf("exp: resize: %v", err))
			}

			// runPhase drives producers*perPhase accesses (fixed batches,
			// detached) and waits for completion, returning the wall time.
			runPhase := func(phase int) time.Duration {
				start := time.Now()
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						r := rng.New(o.Seed + uint64(phase*producers+p) + 1)
						ctx := context.Background()
						batch := make([]directory.Access, 0, 256)
						for i := 0; i < perPhase/producers; i++ {
							kind := directory.AccessRead
							if r.Uint64()%4 == 0 {
								kind = directory.AccessWrite
							}
							batch = append(batch, directory.Access{
								Kind:  kind,
								Addr:  r.Uint64() & (1<<addrBits - 1),
								Cache: int(r.Uint64() % cores),
							})
							if len(batch) == 256 {
								if _, err := eng.Submit(ctx, engine.Request{Accesses: batch, Detached: true}); err != nil {
									panic(fmt.Sprintf("exp: resize: %v", err))
								}
								batch = make([]directory.Access, 0, 256)
							}
						}
						if len(batch) > 0 {
							if _, err := eng.Submit(ctx, engine.Request{Accesses: batch, Detached: true}); err != nil {
								panic(fmt.Sprintf("exp: resize: %v", err))
							}
						}
					}(p)
				}
				wg.Wait()
				if err := eng.Flush(context.Background()); err != nil {
					panic(fmt.Sprintf("exp: resize: %v", err))
				}
				return time.Since(start)
			}

			t := stats.NewTable(
				fmt.Sprintf("Online resize under load (%d shards, %d producers, %d accesses/phase; shard 0 grows 4x mid-run)",
					shards, producers, perPhase),
				"Phase", "kacc/s", "Shard0 kacc/s", "Others kacc/s", "Migrated", "Mig runs")
			prevEng := eng.Stats()
			snap := dir.CountersByShard()
			for phase, name := range []string{"before", "during", "after"} {
				if name == "during" {
					if err := eng.ResizeShardSpec(0, directory.Spec{
						Org:      directory.OrgCuckoo,
						Geometry: directory.Geometry{Ways: 4, Sets: 4 * sets},
					}); err != nil {
						panic(fmt.Sprintf("exp: resize: %v", err))
					}
				}
				elapsed := runPhase(phase)
				if name == "during" {
					// The phase's traffic has drained; let the drainers run
					// the migration dry before the "after" phase so the
					// phases stay cleanly separated.
					for dir.MigratingShards() != 0 {
						time.Sleep(100 * time.Microsecond)
					}
				}
				now := dir.CountersByShard()
				var shard0, others float64
				for h := range now {
					kaccs := float64(now[h].Ops()-snap[h].Ops()) / elapsed.Seconds() / 1e3
					if h == 0 {
						shard0 = kaccs
					} else {
						others += kaccs
					}
				}
				snap = now
				es := eng.Stats()
				t.AddRow(name,
					fmt.Sprintf("%.0f", float64(perPhase)/elapsed.Seconds()/1e3),
					fmt.Sprintf("%.0f", shard0),
					fmt.Sprintf("%.0f", others/(shards-1)),
					fmt.Sprintf("%d", es.MigratedEntries-prevEng.MigratedEntries),
					fmt.Sprintf("%d", es.MigrationRuns-prevEng.MigrationRuns))
				prevEng = es
			}
			health := eng.Health()
			if err := eng.Close(); err != nil {
				panic(fmt.Sprintf("exp: resize: %v", err))
			}
			rs := dir.ResizeStats()
			t.AddNote("resizes started/completed: %d/%d; forced evictions during migration: %d (must be 0 — no entry lost)",
				rs.Started, rs.Completed, rs.MigrationForced)
			if gf := eng.Stats().GrowFailures; gf > 0 || health.LastGrowError != nil {
				t.AddNote("WARNING: %d automatic-grow failures (last: %v) — throughput above ran against a capacity-capped directory",
					gf, health.LastGrowError)
			}
			t.AddNote("per-shard rates are computed from the lock-free CountersByShard deltas; absolute acc/s is host-dependent, the before/during/after ratios travel")
			return []*stats.Table{t}, nil
		},
	}
}
