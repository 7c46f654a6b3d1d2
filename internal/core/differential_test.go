package core

import (
	"fmt"
	"testing"

	"cuckoodir/internal/hashfn"
	"cuckoodir/internal/rng"
)

// The differential tests: Table must be operation-for-operation
// equivalent to refTable, the slot-layout reference procedure that
// hashes every way through the Family interface (reference_test.go),
// and to itself under the old Family-interface dispatch path
// (reproduced exactly by hashfn.Opaque, which defeats indexer
// specialization).

// diffOp is one random table operation.
type diffOp struct {
	kind int // 0 = insert, 1 = find, 2 = delete
	key  uint64
	val  uint64
}

// diffOps generates a deterministic op sequence over a bounded key
// universe sized to drive the table deep into displacement territory.
func diffOps(seed uint64, n int, universe uint64) []diffOp {
	r := rng.New(seed)
	ops := make([]diffOp, n)
	for i := range ops {
		ops[i] = diffOp{
			kind: int(r.Uint64() % 10),
			key:  r.Uint64() % universe,
			val:  r.Uint64(),
		}
		if ops[i].kind < 5 {
			ops[i].kind = 0 // 50% insert
		} else if ops[i].kind < 8 {
			ops[i].kind = 1 // 30% find
		} else {
			ops[i].kind = 2 // 20% delete
		}
	}
	return ops
}

// wideKeyMul is an odd 64-bit constant; multiplying by it is a
// bijection on uint64.
const wideKeyMul = 0x9e3779b97f4a7c15

// wideKeys returns ops with every key multiplied by wideKeyMul. Distinct
// universe keys stay distinct, so the stream keeps its mix of hits,
// misses and re-insertions, but each key now spans all 64 bits: the
// skew fold's upper fields are non-zero for almost every key, where the
// plain universe (< 2^10) leaves them zero.
func wideKeys(ops []diffOp) []diffOp {
	out := make([]diffOp, len(ops))
	for i, op := range ops {
		op.key *= wideKeyMul
		out[i] = op
	}
	return out
}

// keyStream is one named op stream of a differential test.
type keyStream struct {
	name string
	ops  []diffOp
}

// keyStreams returns ops as drawn and in full-width form (wideKeys).
func keyStreams(ops []diffOp) []keyStream {
	return []keyStream{{"keys=narrow", ops}, {"keys=wide", wideKeys(ops)}}
}

// diffTable is the operation surface the differential tests drive;
// Table[uint64] and refTable implement it.
type diffTable interface {
	Insert(key, val uint64) Result[uint64]
	Find(key uint64) *uint64
	Delete(key uint64) bool
	Len() int
	StashLen() int
	ForEach(fn func(Entry[uint64]) bool)
}

// applyCompare drives a and b through the same op and fails on any
// observable divergence.
func applyCompare(t *testing.T, a, b diffTable, i int, op diffOp) {
	t.Helper()
	switch op.kind {
	case 0:
		ra, rb := a.Insert(op.key, op.val), b.Insert(op.key, op.val)
		if ra.Present != rb.Present || ra.Attempts != rb.Attempts || ra.Stashed != rb.Stashed ||
			(ra.Evicted == nil) != (rb.Evicted == nil) {
			t.Fatalf("op %d: Insert(%#x) diverged: %+v vs %+v", i, op.key, ra, rb)
		}
		if ra.Evicted != nil && *ra.Evicted != *rb.Evicted {
			t.Fatalf("op %d: Insert(%#x) evicted %+v vs %+v", i, op.key, *ra.Evicted, *rb.Evicted)
		}
	case 1:
		pa, pb := a.Find(op.key), b.Find(op.key)
		if (pa == nil) != (pb == nil) || (pa != nil && *pa != *pb) {
			t.Fatalf("op %d: Find(%#x) diverged", i, op.key)
		}
	case 2:
		if da, db := a.Delete(op.key), b.Delete(op.key); da != db {
			t.Fatalf("op %d: Delete(%#x) = %v vs %v", i, op.key, da, db)
		}
	}
	if a.Len() != b.Len() || a.StashLen() != b.StashLen() {
		t.Fatalf("op %d: Len %d/%d StashLen %d/%d diverged", i, a.Len(), b.Len(), a.StashLen(), b.StashLen())
	}
}

// compareContents fails unless both tables hold exactly the same
// entries.
func compareContents(t *testing.T, a, b diffTable) {
	t.Helper()
	dump := func(tb diffTable) map[uint64]uint64 {
		m := make(map[uint64]uint64)
		tb.ForEach(func(e Entry[uint64]) bool { m[e.Key] = e.Val; return true })
		return m
	}
	ma, mb := dump(a), dump(b)
	if len(ma) != len(mb) {
		t.Fatalf("contents diverged: %d vs %d entries", len(ma), len(mb))
	}
	for k, v := range ma {
		if mb[k] != v {
			t.Fatalf("contents diverged at key %#x: %#x vs %#x", k, v, mb[k])
		}
	}
}

// diffConfigs is the configuration sweep the differential tests cover:
// every hash family, several way counts, stash on and off, and the
// paper's single-entry buckets beside 2- and 4-entry ones (the
// Panigrahy ablation) at constant capacity.
func diffConfigs() []Config {
	var cfgs []Config
	for _, fam := range []hashfn.Family{nil, hashfn.Strong{}, hashfn.XorFold{}} {
		for _, ways := range []int{2, 3, 4, 8} {
			for _, stash := range []int{0, 4} {
				for _, bucket := range []int{0, 2, 4} {
					cfgs = append(cfgs, Config{
						Ways: ways, SetsPerWay: 64 / max(bucket, 1), BucketSize: bucket,
						StashSize: stash, Hash: fam,
					})
				}
			}
		}
	}
	return cfgs
}

// diffUniverse is a key universe of ~1.3x cfg's capacity, which keeps
// a table near saturation.
func diffUniverse(cfg Config) uint64 {
	return uint64(cfg.Ways*cfg.SetsPerWay*max(cfg.BucketSize, 1)) * 13 / 10
}

func cfgName(cfg Config) string {
	fam := "skew"
	if cfg.Hash != nil {
		fam = cfg.Hash.Name()
	}
	return fmt.Sprintf("%s/ways=%d/stash=%d/bucket=%d", fam, cfg.Ways, cfg.StashSize, cfg.BucketSize)
}

// TestFastGenericEquivalent proves Table and the reference procedure
// produce identical results, evictions, attempt counts and final
// contents on randomized op sequences.
func TestFastGenericEquivalent(t *testing.T) {
	for _, cfg := range diffConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			for _, stream := range keyStreams(diffOps(42, 20_000, diffUniverse(cfg))) {
				t.Run(stream.name, func(t *testing.T) {
					tb, ref := NewTable[uint64](cfg), newRefTable(cfg)
					for i, op := range stream.ops {
						applyCompare(t, tb, ref, i, op)
					}
					compareContents(t, tb, ref)
				})
			}
		})
	}
}

// diffOpsSpecial remaps keys of ops (in place) to plant the packed
// layout's hazard keys into the stream: key 0 (all-zero bit pattern),
// the reserved packedEmpty sentinel and its neighbours. Roughly a tenth
// of the operations land on a hazard key, so the sentinel is inserted,
// found, displaced, deleted and re-inserted many times per run.
func diffOpsSpecial(seed uint64, ops []diffOp) []diffOp {
	special := []uint64{0, packedEmpty, packedEmpty + 1, packedEmpty - 1, ^uint64(0)}
	r := rng.New(seed ^ 0x5eed)
	for i := range ops {
		if r.Uint64()%10 == 0 {
			ops[i].key = special[r.Uint64()%uint64(len(special))]
		}
	}
	return ops
}

// TestPackedSlotLayoutEquivalent proves the pair array, whose vacant
// pairs hold the packedEmpty key, operation-for-operation identical to
// the reference's slot layout with its per-slot valid flag — with key 0
// and the reserved sentinel value in the stream, so a stored key
// colliding with the vacancy encoding cannot silently diverge.
func TestPackedSlotLayoutEquivalent(t *testing.T) {
	for _, seed := range []uint64{3, 99} {
		for _, cfg := range diffConfigs() {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, cfgName(cfg)), func(t *testing.T) {
				for _, stream := range keyStreams(diffOps(seed, 15_000, diffUniverse(cfg))) {
					t.Run(stream.name, func(t *testing.T) {
						tb, ref := NewTable[uint64](cfg), newRefTable(cfg)
						for i, op := range diffOpsSpecial(seed, stream.ops) {
							applyCompare(t, tb, ref, i, op)
						}
						compareContents(t, tb, ref)
					})
				}
			})
		}
	}
}

// TestPackedChurnEquivalent drives Table and the reference through
// directed phases the random mix only grazes: fill past saturation so
// the stash spills, delete resident keys so the stash refills the freed
// slots, then re-insert the deleted keys — with the hazard keys (0, the
// sentinel) seeded among them. Every phase boundary re-checks full
// contents.
func TestPackedChurnEquivalent(t *testing.T) {
	cfg := Config{Ways: 3, SetsPerWay: 64, StashSize: 6}
	packed := NewTable[uint64](cfg)
	slotted := newRefTable(cfg)

	r := rng.New(777)
	keys := []uint64{0, packedEmpty, packedEmpty + 1}
	for len(keys) < packed.Capacity()+cfg.StashSize+32 {
		keys = append(keys, r.Uint64())
	}
	// Phase 1: overfill — late insertions exhaust the budget and spill
	// into the stash (and beyond, forcing evictions) on both tables.
	for i, k := range keys {
		applyCompare(t, packed, slotted, i, diffOp{kind: 0, key: k, val: k ^ 0xabcd})
	}
	compareContents(t, packed, slotted)
	if packed.StashLen() == 0 {
		t.Fatal("phase 1 never spilled into the stash")
	}
	// Phase 2: delete every other key — freed slots opportunistically
	// refill from the stash, in identical order on both tables.
	deleted := keys[:0:0]
	for i, k := range keys {
		if i%2 == 0 {
			applyCompare(t, packed, slotted, i, diffOp{kind: 2, key: k})
			deleted = append(deleted, k)
		}
	}
	compareContents(t, packed, slotted)
	// Phase 3: re-insert the deleted keys (fresh values), then a find
	// sweep over everything, hazard keys included.
	for i, k := range deleted {
		applyCompare(t, packed, slotted, i, diffOp{kind: 0, key: k, val: k ^ 0x1234})
	}
	for i, k := range keys {
		applyCompare(t, packed, slotted, i, diffOp{kind: 1, key: k})
	}
	compareContents(t, packed, slotted)
}

// TestFastInterfaceEquivalent proves the devirtualized pipeline is
// behaviorally identical to the pre-devirtualization Family-interface
// dispatch path (hashfn.Opaque forces the indexer's interface
// fallback), for single-entry buckets AND the bucketized ablation.
func TestFastInterfaceEquivalent(t *testing.T) {
	for _, cfg := range diffConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			iface := cfg
			fam := cfg.Hash
			if fam == nil {
				// Mirror normalize()'s default skew sizing exactly.
				fam = defaultSkew(cfg.SetsPerWay)
			}
			iface.Hash = hashfn.Opaque(fam)
			for _, stream := range keyStreams(diffOps(7, 20_000, diffUniverse(cfg))) {
				t.Run(stream.name, func(t *testing.T) {
					fast := NewTable[uint64](cfg)
					old := NewTable[uint64](iface)
					for i, op := range stream.ops {
						applyCompare(t, fast, old, i, op)
					}
					compareContents(t, fast, old)
				})
			}
		})
	}
}

// TestDirectoryFastGenericEquivalent is the directory-level
// differential: a Directory, whose Read, Write and Evict hand the
// lookup's way indices on to the insert or delete that follows it,
// against refDirectory, which hashes per way on every call. Two more
// Directories run the stream as a batch applier does: each op's indices
// come from a Prefetch (piped) or an Index (indexed) made pipeDepth ops
// earlier, into a ring slot the op then hands to ReadAt, WriteAt or
// EvictAt, with the ops in between free to insert, displace or delete
// the same key. pipeDepth is the depth of the sharded directory's
// applyCuckoo ring (prefetchDepth in internal/directory). All four run
// the same seeded Read/Write/Evict stream, narrow and full-width, over
// every differential config; every forced eviction, invalidate mask and
// LastAttempts must agree, then the event counts, attempt histograms
// and contents.
func TestDirectoryFastGenericEquivalent(t *testing.T) {
	const (
		caches    = 4
		pipeDepth = 8
	)
	sameForced := func(a, b *Forced) bool { return (a == nil) == (b == nil) && (a == nil || *a == *b) }
	for _, cfg := range diffConfigs() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			// diffOps' kinds read here as 0 = Read, 1 = Write,
			// 2 = Evict; val picks the cache.
			for _, stream := range keyStreams(diffOps(11, 20_000, diffUniverse(cfg))) {
				t.Run(stream.name, func(t *testing.T) {
					fast := NewDirectory(DirConfig{Table: cfg, NumCaches: caches})
					piped := NewDirectory(DirConfig{Table: cfg, NumCaches: caches})
					indexed := NewDirectory(DirConfig{Table: cfg, NumCaches: caches})
					ref := newRefDirectory(cfg)
					// The invariant under test needs ops on one key closer
					// together than pipeDepth.
					near := 0
					for i := pipeDepth; i < len(stream.ops); i++ {
						for k := 1; k < pipeDepth; k++ {
							if stream.ops[i-k].key == stream.ops[i].key {
								near++
							}
						}
					}
					if near == 0 {
						t.Fatalf("no two ops on one key within %d ops of each other", pipeDepth)
					}
					var ring, iring [pipeDepth][hashfn.MaxWays]uint64
					for i := range min(pipeDepth, len(stream.ops)) {
						piped.Prefetch(stream.ops[i].key, &ring[i])
						indexed.Index(stream.ops[i].key, &iring[i])
					}
					for i, op := range stream.ops {
						addr, cache := op.key, int(op.val%caches)
						idx, iidx := &ring[i%pipeDepth], &iring[i%pipeDepth]
						switch op.kind {
						case 0:
							fa, fb := fast.Read(addr, cache), ref.Read(addr, cache)
							fp, fi := piped.ReadAt(addr, cache, idx), indexed.ReadAt(addr, cache, iidx)
							if !sameForced(fa, fb) || !sameForced(fp, fb) || !sameForced(fi, fb) {
								t.Fatalf("op %d: Read(%#x, %d) forced %v, prefetched ReadAt %v, indexed ReadAt %v, reference %v",
									i, addr, cache, fa, fp, fi, fb)
							}
						case 1:
							ia, fa := fast.Write(addr, cache)
							ip, fp := piped.WriteAt(addr, cache, idx)
							ii, fi := indexed.WriteAt(addr, cache, iidx)
							ib, fb := ref.Write(addr, cache)
							if ia != ib || ip != ib || ii != ib || !sameForced(fa, fb) || !sameForced(fp, fb) || !sameForced(fi, fb) {
								t.Fatalf("op %d: Write(%#x, %d) = (%#x, %v), prefetched WriteAt (%#x, %v), indexed WriteAt (%#x, %v), reference (%#x, %v)",
									i, addr, cache, ia, fa, ip, fp, ii, fi, ib, fb)
							}
						case 2:
							fast.Evict(addr, cache)
							piped.EvictAt(addr, cache, idx)
							indexed.EvictAt(addr, cache, iidx)
							ref.Evict(addr, cache)
						}
						if j := i + pipeDepth; j < len(stream.ops) {
							piped.Prefetch(stream.ops[j].key, idx)
							indexed.Index(stream.ops[j].key, iidx)
						}
						for _, d := range []*Directory{fast, piped, indexed} {
							if d.LastAttempts() != ref.last || d.Len() != ref.t.Len() {
								t.Fatalf("op %d: LastAttempts %d/%d Len %d/%d diverged",
									i, d.LastAttempts(), ref.last, d.Len(), ref.t.Len())
							}
						}
					}
					sb := ref.stats
					for _, d := range []*Directory{fast, piped, indexed} {
						sa := d.Stats()
						if sa.Events != sb.Events {
							t.Fatalf("events %v vs %v", sa.Events, sb.Events)
						}
						if sa.Events[EvInsertTag] == 0 || sa.Events[EvRemoveTag] == 0 {
							t.Fatalf("stream never allocated and freed entries: %v", sa.Events)
						}
						if sa.ForcedEvictions != sb.ForcedEvictions || sa.ForcedBlocks != sb.ForcedBlocks {
							t.Fatalf("forced %d/%d blocks vs %d/%d",
								sa.ForcedEvictions, sa.ForcedBlocks, sb.ForcedEvictions, sb.ForcedBlocks)
						}
						for v := 0; v <= sa.Attempts.Max(); v++ {
							if sa.Attempts.Bucket(v) != sb.Attempts.Bucket(v) {
								t.Fatalf("attempt histogram at %d: %d vs %d", v, sa.Attempts.Bucket(v), sb.Attempts.Bucket(v))
							}
						}
						compareContents(t, d.t, ref.t)
					}
				})
			}
		})
	}
}
