package exp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/engine"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/rng"
	"cuckoodir/internal/stats"
)

// saturateExp measures the QoS subsystem's contract under overload: a
// fixed closed-loop FOREGROUND workload (submit a batch, wait for its
// ticket — the latency-critical request/response shape) runs against a
// sweep of open-loop BACKGROUND flooders (fire-and-forget bulk traffic,
// the overload), and each level reports per-class p50/p99/p999
// enqueue-to-completion latency next to per-class rejects. The claim
// under test is the shed-order invariant: as offered background load
// crosses capacity, the background class absorbs the rejections while
// the foreground keeps completing. A control run repeats the heaviest
// flood WITHOUT class separation (the flood submitted as Foreground,
// sharing the client's rings) to show what the QoS layer is buying.
// Like `resize` and `degrade` it measures this implementation, not a
// paper figure; the paper connection is the scalability story itself
// (Ferdman et al. §5 serve coherence traffic at many-core scale) plus
// the Phase-Priority line of work showing class-aware arbitration cuts
// contention-induced latency.
func saturateExp() Experiment {
	return Experiment{
		ID: "saturate",
		Title: "QoS under saturation: per-class tail latency and shed order as open-loop " +
			"background load sweeps past capacity under a fixed closed-loop foreground " +
			"workload, with a no-QoS control (implementation artifact)",
		Expect: "With no background load the foreground completes with small latency and " +
			"zero rejects. As background flooders multiply past the drain capacity, the " +
			"background class sheds (nonzero rejects) while the foreground class keeps " +
			"zero rejects and a p99 far below the background's — and in the no-QoS " +
			"control the same flood, submitted classlessly, makes the foreground client " +
			"itself shed and its tail collapse to the flood's.",
		Run: func(o Options) ([]*stats.Table, error) {
			fgBatches := 1500
			levels := []int{0, 1, 2, 4}
			if o.Scale == Full {
				fgBatches = 8000
				levels = []int{0, 1, 2, 4, 8}
			}
			const (
				cores    = 16
				shards   = 8
				drainers = 4
				batchLen = 64
				depth    = 64
			)

			// runLevel drives one load level on a fresh directory+engine:
			// one closed-loop foreground client (single-shard batches —
			// the request/response shape; one drainer owns each completion
			// so the measured latency is that drainer's priority
			// behaviour, not an all-drainers rendezvous) against
			// `flooders` open-loop producers submitting multi-shard bulk
			// batches as floodClass. Returns the engine's final stats, the
			// flood's offered batch count, the client's own
			// submit-to-completion histogram (µs) and its rejected count.
			runLevel := func(flooders int, floodClass qos.Class) (engine.Stats, uint64, *stats.Histogram, uint64, time.Duration) {
				dir, err := directory.BuildSharded(directory.Spec{
					Org:       directory.OrgCuckoo,
					NumCaches: cores,
					Geometry:  directory.Geometry{Ways: 4, Sets: 1024},
				}, shards)
				if err != nil {
					panic(fmt.Sprintf("exp: saturate: %v", err))
				}
				eng, err := engine.New(dir, engine.Options{
					Drainers:   drainers,
					Policy:     engine.RejectWhenFull,
					QueueDepth: depth,
					// A small quantum bounds each run's background burst
					// (the priority-inversion window a foreground arrival
					// can be stuck behind) to 64 accesses per drainer —
					// the latency-biased end of the throughput/latency
					// trade the quantum knob exposes.
					Sched: qos.Sched{Policy: qos.WeightedDeficit, Quantum: 64},
				})
				if err != nil {
					panic(fmt.Sprintf("exp: saturate: %v", err))
				}
				// Per-shard address pools for the foreground client (the
				// home function hashes, so bucket addresses by shard once).
				const poolLen = 1024
				pools := make([][]uint64, shards)
				for a, need := uint64(0), shards*poolLen; need > 0; a++ {
					h := dir.ShardOf(a)
					if len(pools[h]) < poolLen {
						pools[h] = append(pools[h], a)
						need--
					}
				}
				start := time.Now()
				stop := make(chan struct{})
				var flooderWG sync.WaitGroup
				// The ready gate holds the foreground client back until
				// every flooder has its first batch in — without it a short
				// level can complete its whole closed-loop workload before
				// the runtime ever schedules a flooder goroutine, and the
				// "overloaded" row silently measures an idle engine.
				var ready sync.WaitGroup
				bgCounts := make([]uint64, flooders)
				for p := 0; p < flooders; p++ {
					flooderWG.Add(1)
					ready.Add(1)
					go func(p int) {
						defer flooderWG.Done()
						r := rng.New(o.Seed + uint64(p)*7919 + 101)
						ctx := context.Background()
						batch := make([]directory.Access, batchLen)
						first := true
						for {
							select {
							case <-stop:
								if first {
									ready.Done()
								}
								return
							default:
							}
							for i := range batch {
								kind := directory.AccessRead
								if r.Uint64()%4 == 0 {
									kind = directory.AccessWrite
								}
								batch[i] = directory.Access{
									Kind:  kind,
									Addr:  r.Uint64() % (1 << 24),
									Cache: int(r.Uint64() % cores),
								}
							}
							bgCounts[p]++
							_, err := eng.Submit(ctx, engine.Request{Accesses: batch, Class: floodClass, Detached: true})
							if errors.Is(err, engine.ErrQueueFull) {
								// Backoff on shed: keeps the rings pinned
								// full without burning the host's cores in
								// a submit spin — an unthrottled reject
								// loop starves the drainers and the
								// foreground client at the RUNTIME
								// scheduler, drowning the engine scheduler
								// being measured.
								time.Sleep(500 * time.Microsecond)
							} else if err != nil {
								panic(fmt.Sprintf("exp: saturate: %v", err))
							}
							if first {
								first = false
								ready.Done()
							}
						}
					}(p)
				}
				ready.Wait()
				// The closed-loop client: at most one batch in flight, so
				// its measured latency is the engine's service quality, not
				// self-inflicted queueing. It also gates the level's
				// duration: flooders run until the client's fixed workload
				// completes.
				clientHist := stats.NewHistogram(1_000_000)
				var clientRejects uint64
				r := rng.New(o.Seed + 1)
				ctx := context.Background()
				batch := make([]directory.Access, batchLen)
				for b := 0; b < fgBatches; b++ {
					h := b % shards
					for i := range batch {
						kind := directory.AccessRead
						if r.Uint64()%4 == 0 {
							kind = directory.AccessWrite
						}
						batch[i] = directory.Access{
							Kind:  kind,
							Addr:  pools[h][r.Uint64()%poolLen],
							Cache: int(r.Uint64() % cores),
						}
					}
					t0 := time.Now()
					tk, err := eng.Submit(ctx, engine.Request{Accesses: batch, Class: qos.Foreground})
					if errors.Is(err, engine.ErrQueueFull) {
						clientRejects++
						continue
					}
					if err != nil {
						panic(fmt.Sprintf("exp: saturate: %v", err))
					}
					if err := tk.Wait(ctx); err != nil {
						panic(fmt.Sprintf("exp: saturate: %v", err))
					}
					clientHist.Add(int(time.Since(t0).Microseconds()))
				}
				close(stop)
				flooderWG.Wait()
				if err := eng.Close(); err != nil {
					panic(fmt.Sprintf("exp: saturate: %v", err))
				}
				elapsed := time.Since(start)
				var offered uint64
				for _, n := range bgCounts {
					offered += n
				}
				return eng.Stats(), offered, clientHist, clientRejects, elapsed
			}

			t := stats.NewTable(
				fmt.Sprintf("QoS saturation sweep (%d shards, %d drainers, %d-deep rings, reject-when-full, wdrr %d:%d q=64; 1 closed-loop fg client x %d single-shard batches of %d vs N open-loop bg flooders)",
					shards, drainers, depth, qos.DefaultForegroundWeight, qos.DefaultBackgroundWeight, fgBatches, batchLen),
				"bg flooders", "kacc/s", "fg p50 µs", "fg p99 µs", "fg p999 µs", "bg p99 µs", "fg rejected", "bg rejected", "bg offered")
			type levelResult struct {
				flooders      int
				bgOffered     uint64
				st            engine.Stats
				clientHist    *stats.Histogram
				clientRejects uint64
			}
			var results []levelResult
			for _, flooders := range levels {
				st, offered, hist, clientRejects, elapsed := runLevel(flooders, qos.Background)
				results = append(results, levelResult{
					flooders: flooders, bgOffered: offered, st: st,
					clientHist: hist, clientRejects: clientRejects,
				})
				fg := st.Classes[qos.Foreground]
				bg := st.Classes[qos.Background]
				fgP50, fgP99, fgP999 := fg.Latency.Percentiles()
				_, bgP99, _ := bg.Latency.Percentiles()
				t.AddRow(
					fmt.Sprintf("%d", flooders),
					fmt.Sprintf("%.0f", float64(st.CompletedAccesses)/elapsed.Seconds()/1e3),
					fmt.Sprintf("%d", fgP50.Microseconds()),
					fmt.Sprintf("%d", fgP99.Microseconds()),
					fmt.Sprintf("%d", fgP999.Microseconds()),
					fmt.Sprintf("%d", bgP99.Microseconds()),
					fmt.Sprintf("%d", fg.Rejected+clientRejects),
					fmt.Sprintf("%d", bg.Rejected),
					fmt.Sprintf("%d", offered))
			}

			// The shed-order verdict: compare the heaviest level against
			// the uncontended (0-flooder) baseline.
			base := results[0].st.Classes[qos.Foreground]
			top := results[len(results)-1]
			topFg := top.st.Classes[qos.Foreground]
			topBg := top.st.Classes[qos.Background]
			_, baseP99, _ := base.Latency.Percentiles()
			_, topP99, _ := topFg.Latency.Percentiles()
			ratio := 0.0
			if baseP99 > 0 {
				ratio = float64(topP99) / float64(baseP99)
			}
			t.AddNote("shed order at %d flooders: background rejected %d of %d offered batches, foreground rejected %d — background sheds first",
				top.flooders, topBg.Rejected, top.bgOffered, topFg.Rejected)
			if topBg.Rejected == 0 {
				t.AddNote("WARNING: background never shed — the sweep did not reach saturation on this host (raise flooders or shrink QueueDepth)")
			}
			if topFg.Rejected > 0 {
				t.AddNote("WARNING: foreground rejected %d batches under overload — per-class backpressure should keep a closed-loop foreground out of its ring's full state", topFg.Rejected)
			}
			t.AddNote("foreground p99 at top load vs uncontended: %v vs %v (%.1fx; power-of-two bucket resolution — adjacent buckets differ 2x by construction; on a heavily oversubscribed host the tail includes runtime-scheduler queueing both classes share — the control table isolates what the CLASS separation buys)",
				topP99, baseP99, ratio)
			t.AddNote("latencies are enqueue-to-completion from the engine's per-drainer class recorders (Stats.Classes), at power-of-two bucket resolution; rejects count per-class queue-full batch refusals under RejectWhenFull (fg adds the client's submit-side rejects) — the engine sheds rather than queues past depth %d", depth)

			// The control: the identical flood, submitted WITHOUT class
			// separation — it lands in the same rings as the client, so
			// the client itself competes for ring slots. The client-side
			// measurements make the comparison (same load, same
			// closed-loop client, only the flood's class bit differs).
			ctrl := stats.NewTable(
				fmt.Sprintf("No-QoS control at %d flooders: the same flood submitted as Foreground, sharing the client's rings (client-side submit-to-completion latency)", top.flooders),
				"flood class", "client completed", "client rejected", "client p50 µs", "client p99 µs", "flood rejected")
			qosHist, qosRejects := top.clientHist, top.clientRejects
			ctrlSt, _, ctrlHist, ctrlRejects, _ := runLevel(top.flooders, qos.Foreground)
			ctrl.AddRow("bg (QoS)",
				fmt.Sprintf("%d", qosHist.Count()),
				fmt.Sprintf("%d", qosRejects),
				fmt.Sprintf("%d", qosHist.Percentile(0.50)),
				fmt.Sprintf("%d", qosHist.Percentile(0.99)),
				fmt.Sprintf("%d", topBg.Rejected))
			ctrl.AddRow("fg (no QoS)",
				fmt.Sprintf("%d", ctrlHist.Count()),
				fmt.Sprintf("%d", ctrlRejects),
				fmt.Sprintf("%d", ctrlHist.Percentile(0.50)),
				fmt.Sprintf("%d", ctrlHist.Percentile(0.99)),
				fmt.Sprintf("%d", ctrlSt.Classes[qos.Foreground].Rejected-ctrlRejects))
			if ctrlRejects > 10*(qosRejects+1) {
				ctrl.AddNote("class separation at work: with QoS the flood never touches the client's rings — %d/%d client batches completed (%d rejected) while the flood shed; classless, the flood fills the client's own rings and the client itself sheds %d of %d batches (its percentile cells then cover only the %d survivors)",
					qosHist.Count(), uint64(fgBatches), qosRejects, ctrlRejects, fgBatches, ctrlHist.Count())
			} else {
				ctrl.AddNote("WARNING: the control shed no more client batches than the QoS run (%d vs %d) — class separation made no measurable difference at this load on this host",
					ctrlRejects, qosRejects)
			}
			return []*stats.Table{t, ctrl}, nil
		},
	}
}
