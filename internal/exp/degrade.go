package exp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/faults"
	"cuckoodir/internal/rng"
	"cuckoodir/internal/stats"
)

// degradeExp measures fault CONTAINMENT, not fault absence: engine
// traffic runs in three phases — healthy, with drainer 0 stalled by an
// injected fault, and after the stall releases — and each phase reports
// the stalled shard's throughput next to every other shard's, plus the
// p99 completion wait on the non-faulted shards. Like `resize` it
// measures this implementation (the fault-injection tentpole), not a
// paper artifact; the paper's connection is §4.3's availability
// argument — a directory slice that degrades must not take the other
// slices' service down with it.
func degradeExp() Experiment {
	return Experiment{
		ID: "degrade",
		Title: "Fault containment: non-faulted shards' throughput and wait latency through " +
			"an injected drainer stall, and recovery after release (implementation artifact)",
		Expect: "During the stall the engine's health flips to degraded with exactly drainer 0 " +
			"flagged, shard 0's completed throughput collapses (its queue fills and submissions " +
			"are rejected after bounded retries) while the other shards' per-shard throughput and " +
			"p99 wait stay within noise of the healthy phase; after release, health recovers and " +
			"the backlog drains with zero erred accesses and zero contained panics.",
		Run: func(o Options) ([]*stats.Table, error) {
			batches := 600
			if o.Scale == Full {
				batches = 6000
			}
			const (
				cores     = 16
				shards    = 8
				producers = 4
				batchLen  = 64
				// waitBudget bounds each producer's wait on a completion:
				// during the stall, shard 0's enqueued batches never
				// complete, and the phase must still end.
				waitBudget = 25 * time.Millisecond
			)
			dir, err := directory.BuildSharded(directory.Spec{
				Org:       directory.OrgCuckoo,
				NumCaches: cores,
				Geometry:  directory.Geometry{Ways: 4, Sets: 1024},
			}, shards)
			if err != nil {
				panic(fmt.Sprintf("exp: degrade: %v", err))
			}
			inj := faults.New()
			eng, err := engine.New(dir, engine.Options{
				Drainers:       shards,
				Policy:         engine.RejectWhenFull,
				QueueDepth:     64,
				Faults:         inj,
				StallThreshold: 10 * time.Millisecond,
			})
			if err != nil {
				panic(fmt.Sprintf("exp: degrade: %v", err))
			}

			// Per-shard address pools: the home function hashes, so scan
			// the address space once and bucket 4096 addresses per shard —
			// producers then build single-shard batches by pool lookup.
			const poolLen = 4096
			pools := make([][]uint64, shards)
			for a, need := uint64(0), shards*poolLen; need > 0; a++ {
				h := dir.ShardOf(a)
				if len(pools[h]) < poolLen {
					pools[h] = append(pools[h], a)
					need--
				}
			}
			shardAddr := func(h int, n uint64) uint64 {
				return pools[h][n%poolLen]
			}

			// runPhase drives `batches` single-shard, closed-loop batches:
			// producer 0 is dedicated to shard 0 (the fault victim), the
			// other producers cycle over shards 1..N-1 — so the victim's
			// stalled waits cannot head-of-line-block the traffic whose
			// survival the experiment is proving. Each group's throughput
			// is measured against its OWN wall time (the victim producer
			// runs far longer during the stall, by design). Returns the
			// victim's elapsed, the healthy group's elapsed (slowest
			// member), rejected-after-retries count, and the healthy
			// group's completion-wait histogram (µs).
			runPhase := func(phase int) (time.Duration, time.Duration, uint64, *stats.Histogram) {
				var wg sync.WaitGroup
				rejects := make([]uint64, producers)
				hists := make([]*stats.Histogram, producers)
				elapsed := make([]time.Duration, producers)
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						start := time.Now()
						hists[p] = stats.NewHistogram(100_000)
						r := rng.New(o.Seed + uint64(phase*producers+p) + 1)
						ctx := context.Background()
						for b := 0; b < batches/producers; b++ {
							h := 0
							if p != 0 {
								h = 1 + (b*(producers-1)+p-1)%(shards-1)
							}
							batch := make([]directory.Access, batchLen)
							for i := range batch {
								kind := directory.AccessRead
								if r.Uint64()%4 == 0 {
									kind = directory.AccessWrite
								}
								batch[i] = directory.Access{
									Kind:  kind,
									Addr:  shardAddr(h, r.Uint64()),
									Cache: int(r.Uint64() % cores),
								}
							}
							t0 := time.Now()
							tk, err := eng.SubmitRetry(ctx, engine.Request{Accesses: batch}, engine.RetryOptions{
								Attempts:  4,
								BaseDelay: 50 * time.Microsecond,
								MaxDelay:  time.Millisecond,
								Seed:      o.Seed + uint64(p) + 100,
							})
							if errors.Is(err, engine.ErrQueueFull) {
								rejects[p]++
								continue
							}
							if err != nil {
								panic(fmt.Sprintf("exp: degrade: %v", err))
							}
							wctx, cancel := context.WithTimeout(ctx, waitBudget)
							werr := tk.Wait(wctx)
							cancel()
							// Only cleanly-completed healthy-shard waits enter
							// the latency histogram: shard 0's stalled waits
							// time out by design and would measure the wait
							// budget, not the engine.
							if werr == nil && h != 0 {
								hists[p].Add(int(time.Since(t0).Microseconds()))
							}
						}
						elapsed[p] = time.Since(start)
					}(p)
				}
				wg.Wait()
				var rej uint64
				hist := stats.NewHistogram(100_000)
				othersElapsed := time.Duration(0)
				for p := 0; p < producers; p++ {
					rej += rejects[p]
					hist.Merge(hists[p])
					if p != 0 && elapsed[p] > othersElapsed {
						othersElapsed = elapsed[p]
					}
				}
				return elapsed[0], othersElapsed, rej, hist
			}

			t := stats.NewTable(
				fmt.Sprintf("Drainer stall containment (%d shards, %d producers, %d batches/phase; drainer 0 stalls in phase 2)",
					shards, producers, batches),
				"Phase", "Shard0 kacc/s", "Others kacc/s", "p99 wait µs", "Rejected")
			var stall *faults.Armed
			snap := dir.CountersByShard()
			healthSeen := map[string]engine.Health{}
			for phase, name := range []string{"healthy", "stalled", "recovered"} {
				if name == "stalled" {
					// Arm and trip the stall deterministically: the next
					// run drainer 0 applies parks it until Release.
					stall = inj.Arm(faults.DrainerStall, faults.Trigger{Key: 0, Count: 1})
					if _, err := eng.Submit(context.Background(), engine.Request{Detached: true, Accesses: []directory.Access{
						{Kind: directory.AccessRead, Addr: shardAddr(0, 0), Cache: 0},
					}}); err != nil {
						panic(fmt.Sprintf("exp: degrade: %v", err))
					}
				}
				victimElapsed, othersElapsed, rejected, hist := runPhase(phase)
				healthSeen[name] = eng.Health()
				// Snapshot the counters BEFORE any release, so the stalled
				// row counts only what completed while the fault was live.
				now := dir.CountersByShard()
				var shard0, others float64
				for h := range now {
					delta := float64(now[h].Ops() - snap[h].Ops())
					if h == 0 {
						shard0 = delta / victimElapsed.Seconds() / 1e3
					} else {
						others += delta / othersElapsed.Seconds() / 1e3
					}
				}
				if name == "stalled" {
					// Recovery: release the stall and drain the backlog
					// before the next phase starts, so the phases stay
					// cleanly separated (the drained backlog is charged to
					// neither row: the snapshot below re-baselines).
					stall.Release()
					if err := eng.Flush(context.Background()); err != nil {
						panic(fmt.Sprintf("exp: degrade: %v", err))
					}
					now = dir.CountersByShard()
				}
				snap = now
				t.AddRow(name,
					fmt.Sprintf("%.0f", shard0),
					fmt.Sprintf("%.0f", others/(shards-1)),
					fmt.Sprintf("%d", hist.Percentile(0.99)),
					fmt.Sprintf("%d", rejected))
			}
			if err := eng.Close(); err != nil {
				panic(fmt.Sprintf("exp: degrade: %v", err))
			}

			hs := healthSeen["stalled"]
			stalledOK := hs.Degraded && len(hs.Drainers) > 0 && hs.Drainers[0].Stalled
			hr := healthSeen["recovered"]
			recoveredOK := !hr.Degraded
			t.AddNote("health during stall: degraded=%v drainer0.stalled=%v (want true/true); after release: degraded=%v (want false)",
				hs.Degraded, stalledOK && hs.Drainers[0].Stalled, hr.Degraded)
			if !stalledOK || !recoveredOK {
				t.AddNote("WARNING: health did not track the injected stall/recovery as expected")
			}
			es := eng.Stats()
			t.AddNote("erred accesses: %d, contained panics: %d (a stall degrades service, it must not corrupt it); stall fired %d time(s)",
				es.ErredAccesses, es.ContainedPanics, inj.Fired(faults.DrainerStall))
			t.AddNote("per-shard rates from lock-free CountersByShard deltas, each producer group against its own wall time (producer 0 is dedicated to shard 0 so its stalled waits cannot head-of-line-block the healthy traffic); shard 0's stalled-phase rate counts only pre-stall completions — the contained failure mode is rejection, not collapse of the others")
			return []*stats.Table{t}, nil
		},
	}
}
