package cuckoodir

// One benchmark per table and figure of the paper's evaluation, as
// required by the reproduction harness: `go test -bench=.` regenerates
// every artifact at Quick scale and reports wall time per run. The
// rendered tables land in benchmark logs via b.Log at -v; use
// cmd/cuckoodir for human-readable output, and -scale full (or FullScale
// here) for the paper-scale numbers recorded in EXPERIMENTS.md.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"cuckoodir/internal/exp"
)

// benchExperiment runs one experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(exp.Options{Scale: exp.Quick, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkTable1Config(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkTable2Workloads(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkFig4Scaling(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig7Characteristics(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8Occupancy(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9Provisioning(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10Attempts(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11Worstcase(b *testing.B)      { benchExperiment(b, "fig11") }
func BenchmarkFig12Invalidations(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13Comparison(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkEventMix(b *testing.B)            { benchExperiment(b, "mix") }
func BenchmarkHashSelection(b *testing.B)       { benchExperiment(b, "hashes") }
func BenchmarkAblations(b *testing.B)           { benchExperiment(b, "ablation") }
func BenchmarkSharerFormats(b *testing.B)       { benchExperiment(b, "formats") }
func BenchmarkAnalyticModels(b *testing.B)      { benchExperiment(b, "analytic") }
func BenchmarkProtocolLatency(b *testing.B)     { benchExperiment(b, "latency") }

// Micro-benchmarks on the public API's hot paths.

func BenchmarkCuckooDirectoryRead(b *testing.B) {
	dir := MustBuild(Spec{Org: OrgCuckoo, NumCaches: 32, Geometry: Geometry{Ways: 4, Sets: 512}})
	for i := uint64(0); i < 1024; i++ {
		dir.Read(i, int(i)%32)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir.Read(uint64(i)&1023, i&31)
	}
}

func BenchmarkCuckooDirectoryChurn(b *testing.B) {
	dir := MustBuild(Spec{Org: OrgCuckoo, NumCaches: 32, Geometry: Geometry{Ways: 4, Sets: 512}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i*2654435761) & 4095
		dir.Read(addr, i&31)
		if i&3 == 3 {
			dir.Evict(addr, i&31)
		}
	}
}

// shardedBenchSpec returns the per-shard slice geometry for a sweep
// point: total capacity is held at 4x8192 slots regardless of shard
// count, so the sweep varies only concurrency, not occupancy regime.
func shardedBenchSpec(shards int) Spec {
	return Spec{
		Org:       OrgCuckoo,
		NumCaches: 32,
		Geometry:  Geometry{Ways: 4, Sets: 8192 / shards},
	}
}

// benchBlockAddr scatters a dense block index across the address space so
// shard interleaving does not starve the per-shard index hashes.
func benchBlockAddr(state uint64) uint64 {
	return (state % (1 << 13)) * 2654435761
}

// BenchmarkShardedDirectory sweeps shard counts under parallel
// point-operation load (RunParallel uses GOMAXPROCS goroutines) — the
// concurrency baseline for future batching/sharding work. shards=1
// measures pure lock contention; higher counts measure how interleaving
// relieves it.
func BenchmarkShardedDirectory(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			dir, err := BuildSharded(shardedBenchSpec(shards), shards)
			if err != nil {
				b.Fatal(err)
			}
			var worker atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				state := worker.Add(1) * 0x9e3779b97f4a7c15
				for pb.Next() {
					state = state*6364136223846793005 + 1442695040888963407
					addr := benchBlockAddr(state)
					cache := int(state>>32) & 31
					switch state >> 62 {
					case 0:
						dir.Write(addr, cache)
					case 1:
						dir.Evict(addr, cache)
					default:
						dir.Read(addr, cache)
					}
				}
			})
		})
	}
}

// BenchmarkShardedDirectoryApply measures the batched path: one Apply of
// a 1024-access batch per iteration, one lock acquisition per touched
// shard instead of one per access.
func BenchmarkShardedDirectoryApply(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			dir, err := BuildSharded(shardedBenchSpec(shards), shards)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]Access, 1024)
			state := uint64(1)
			for i := range batch {
				state = state*6364136223846793005 + 1442695040888963407
				kind := AccessRead
				if state>>63 == 1 {
					kind = AccessWrite
				}
				batch[i] = Access{Kind: kind, Addr: benchBlockAddr(state), Cache: int(state>>32) & 31}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dir.Apply(batch)
			}
		})
	}
}

func BenchmarkCuckooTableInsertDelete(b *testing.B) {
	t, err := NewCuckooTable[uint64](TableConfig{Ways: 4, SetsPerWay: 1 << 13})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, t.Capacity()/2)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		t.Insert(keys[i], 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		t.Delete(k)
		t.Insert(k, uint64(i))
	}
}
