// FuzzDirectoryOps drives every registry organization with one decoded
// operation stream against a map oracle. The oracle is maintained from
// each directory's *own* outputs (forced evictions remove blocks, a
// write makes the writer the sole owner), so the invariants hold for
// lossy organizations too:
//
//   - every organization's Lookup is a superset of the oracle mask;
//   - ForEach visits the oracle contents exactly — nothing lost,
//     nothing duplicated, no stray entries (exact organizations also
//     match on Lookup masks);
//   - the sharded instance additionally absorbs live resizes mid-stream
//     (a dedicated opcode starts or steps a migration), so the old/new
//     union view is fuzzed alongside the plain organizations.
//
// The encoded stream reserves an escape to the adversarial key set the
// core differential tests established: key 0, the packed-layout empty
// sentinel and its neighbours, and ^0.

package directory

import (
	"testing"
)

// fuzzSpecialKeys mirrors internal/core's differential special cases:
// the packed-layout vacant-slot sentinel (core/table.go packedEmpty =
// 0xfeed5eedcafe0b5e) and its neighbours, plus the extremes.
var fuzzSpecialKeys = [...]uint64{
	0,
	0xfeed5eedcafe0b5e, // == core packedEmpty
	0xfeed5eedcafe0b5d,
	0xfeed5eedcafe0b5f,
	^uint64(0),
}

const (
	fuzzCaches    = 8
	fuzzAddrSpace = 1024
	fuzzMaxOps    = 4096
	fuzzDupSets   = 64 // geometry of the dup-tag instance below
	fuzzDupAssoc  = 4
)

// fuzzOrgs is one small instance of every registry organization, all
// resolved through the registry grammar. exactLookup marks the
// organizations whose Lookup mask must equal the oracle exactly (the
// rest may answer supersets; their ForEach contents are still exact).
var fuzzOrgs = []struct {
	name        string
	exactLookup bool
}{
	{"ideal", true},
	{"in-cache-4096", true},
	{"dup-tag-4x64", true}, // keep geometry in sync with fuzzDupSets/Assoc
	{"cuckoo-4x64", true},
	{"sparse-8x64", true},
	{"skewed-4x64", true},
	{"elbow-4x64", true},
	{"tagless-64x16x2", false},
	{"sharded-2^grow=0.9(cuckoo-4x64)", true},
}

// fuzzDriver pairs a directory with its oracle.
type fuzzDriver struct {
	name        string
	d           Directory
	exactLookup bool
	truth       map[uint64]uint64
}

func (fd *fuzzDriver) apply(kind int, addr uint64, cache int) {
	switch kind {
	case 0:
		op := fd.d.Read(addr, cache)
		fd.truth[addr] |= bit(cache)
		fd.forget(op.Forced)
	case 1:
		op := fd.d.Write(addr, cache)
		fd.truth[addr] = bit(cache)
		fd.forget(op.Forced)
	case 2:
		fd.d.Evict(addr, cache)
		if m := fd.truth[addr] &^ bit(cache); m == 0 {
			delete(fd.truth, addr)
		} else {
			fd.truth[addr] = m
		}
	}
}

// forget drops forced entries' sharers from the oracle: the directory
// no longer tracks those copies. Clearing the mask, not the address,
// keeps a block a migration re-inserted for its other sharers after
// forcing it out.
func (fd *fuzzDriver) forget(forced []Forced) {
	for _, f := range forced {
		if m := fd.truth[f.Addr] &^ f.Sharers; m == 0 {
			delete(fd.truth, f.Addr)
		} else {
			fd.truth[f.Addr] = m
		}
	}
}

// audit checks the three invariants against the oracle.
func (fd *fuzzDriver) audit(t *testing.T, step int) {
	t.Helper()
	census := make(map[uint64]uint64, len(fd.truth))
	fd.d.ForEach(func(a, m uint64) bool {
		if _, seen := census[a]; seen {
			t.Fatalf("step %d: %s: ForEach visits addr %#x twice (duplicated entry)", step, fd.name, a)
		}
		census[a] = m
		return true
	})
	for a, m := range fd.truth {
		got, ok := census[a]
		if !ok {
			t.Fatalf("step %d: %s: addr %#x lost (oracle mask %#x)", step, fd.name, a, m)
		}
		if got != m {
			t.Fatalf("step %d: %s: addr %#x contents %#x, oracle %#x", step, fd.name, a, got, m)
		}
		lk, lok := fd.d.Lookup(a)
		if !lok || lk&m != m {
			t.Fatalf("step %d: %s: Lookup(%#x) = %#x,%v under-approximates oracle %#x", step, fd.name, a, lk, lok, m)
		}
		if fd.exactLookup && lk != m {
			t.Fatalf("step %d: %s: Lookup(%#x) = %#x, oracle %#x (exact organization)", step, fd.name, a, lk, m)
		}
	}
	for a := range census {
		if _, ok := fd.truth[a]; !ok {
			t.Fatalf("step %d: %s: stray entry %#x not in oracle", step, fd.name, a)
		}
	}
}

// dupMirror pre-validates the duplicate-tag mirroring invariant so the
// shared stream never fills a (cache, cache-set) pair beyond the
// mirrored associativity — the one op shape duplicate-tag rejects (by
// panicking) as a protocol bug rather than absorbing.
type dupMirror struct {
	truth map[uint64]uint64
	load  map[dupKey]int
}

func (dm *dupMirror) wouldOverflow(kind int, addr uint64, cache int) bool {
	if kind != 0 && kind != 1 {
		return false
	}
	if dm.truth[addr]&bit(cache) != 0 {
		return false // already filled, no new frame
	}
	return dm.load[dupKey{cache: cache, set: addr % fuzzDupSets}] >= fuzzDupAssoc
}

func (dm *dupMirror) apply(kind int, addr uint64, cache int) {
	old := dm.truth[addr]
	switch kind {
	case 0:
		if old&bit(cache) == 0 {
			dm.load[dupKey{cache: cache, set: addr % fuzzDupSets}]++
			dm.truth[addr] = old | bit(cache)
		}
	case 1:
		for inv := old &^ bit(cache); inv != 0; inv &= inv - 1 {
			c := trailingZeros(inv)
			dm.load[dupKey{cache: c, set: addr % fuzzDupSets}]--
		}
		if old&bit(cache) == 0 {
			dm.load[dupKey{cache: cache, set: addr % fuzzDupSets}]++
		}
		dm.truth[addr] = bit(cache)
	case 2:
		if old&bit(cache) != 0 {
			dm.load[dupKey{cache: cache, set: addr % fuzzDupSets}]--
			if m := old &^ bit(cache); m == 0 {
				delete(dm.truth, addr)
			} else {
				dm.truth[addr] = m
			}
		}
	}
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

func FuzzDirectoryOps(f *testing.F) {
	// Seed 1: every special key through every op kind from two caches.
	var seed1 []byte
	for i, c := range []byte{0, 5} {
		for kind := byte(0); kind < 3; kind++ {
			for k := byte(0); k < byte(len(fuzzSpecialKeys)); k++ {
				seed1 = append(seed1, 0x80|kind|c<<2, k, byte(i))
			}
		}
	}
	f.Add(seed1)

	// Seed 2: dense churn over a small range — collisions, forced
	// evictions, write-invalidations.
	var seed2 []byte
	for i := 0; i < 600; i++ {
		b := byte(i*7 + 3)
		seed2 = append(seed2, byte(i)%3|(b&0x1c), byte(i/5)%2, byte(i*13))
	}
	f.Add(seed2)

	// Seed 3: migration-heavy — writes interleaved with the resize
	// opcode (kind 3) so shards flip in and out of migration.
	var seed3 []byte
	for i := 0; i < 400; i++ {
		kind := byte(1)
		if i%5 == 4 {
			kind = 3
		}
		seed3 = append(seed3, kind|byte(i*3)&0x1c, byte(i/3), byte(i*11))
	}
	f.Add(seed3)

	// Seed 4: one shard grown to 128 sets and stepped to completion,
	// filled with 300 blocks, then shrunk back to 64 sets (256 entries):
	// the shrink's migration steps force entries out, and their Forced
	// records must reach the oracle.
	grown, err := BuildNamed("sharded-2^grow=0.9(cuckoo-4x64)", fuzzCaches)
	if err != nil {
		f.Fatal(err)
	}
	var shard0 []uint64 // shard 0's addresses, ascending
	for a := uint64(0); a < fuzzAddrSpace; a++ {
		if grown.(*ShardedDirectory).ShardOf(a) == 0 {
			shard0 = append(shard0, a)
		}
	}
	// on returns a shard-0 address whose bits 8-9 are hi: a kind-3 op on
	// it resizes the shard to 64<<(hi&1) sets or, with 4 added to its
	// second byte, steps 1+(hi|4) pending addresses.
	on := func(hi uint64) uint64 {
		for _, a := range shard0 {
			if a>>8 == hi {
				return a
			}
		}
		panic("no shard-0 address")
	}
	write := func(a uint64) []byte { return []byte{1 | byte(a>>6&7)<<2, byte(a >> 8), byte(a)} }
	resize := func(a uint64) []byte { return []byte{3, byte(a >> 8), byte(a)} }
	step := []byte{3, byte(on(3)>>8) | 4, byte(on(3))} // 8 pending addresses
	var seed4 []byte
	for _, a := range shard0[:16] {
		seed4 = append(seed4, write(a)...)
	}
	seed4 = append(seed4, resize(on(1))...) // 128 sets, 16 pending
	seed4 = append(seed4, step...)
	seed4 = append(seed4, step...)
	for _, a := range shard0[16:300] {
		seed4 = append(seed4, write(a)...)
	}
	seed4 = append(seed4, resize(on(0))...) // 64 sets, 300 pending
	for range 4 {
		seed4 = append(seed4, step...)
	}
	f.Add(seed4)

	f.Fuzz(func(t *testing.T, data []byte) {
		nops := len(data) / 3
		if nops > fuzzMaxOps {
			nops = fuzzMaxOps
		}
		drivers := make([]*fuzzDriver, 0, len(fuzzOrgs))
		var sharded *ShardedDirectory
		var shardedDriver *fuzzDriver
		for _, o := range fuzzOrgs {
			d, err := BuildNamed(o.name, fuzzCaches)
			if err != nil {
				t.Fatalf("BuildNamed(%q): %v", o.name, err)
			}
			fd := &fuzzDriver{
				name: o.name, d: d, exactLookup: o.exactLookup,
				truth: map[uint64]uint64{},
			}
			if sd, ok := d.(*ShardedDirectory); ok {
				sharded, shardedDriver = sd, fd
			}
			drivers = append(drivers, fd)
		}
		mirror := &dupMirror{truth: map[uint64]uint64{}, load: map[dupKey]int{}}

		for i := 0; i < nops; i++ {
			b0, b1, b2 := data[i*3], data[i*3+1], data[i*3+2]
			kind := int(b0 & 3)
			cache := int(b0>>2) & (fuzzCaches - 1)
			addr := (uint64(b1)<<8 | uint64(b2)) % fuzzAddrSpace
			if b0&0x80 != 0 {
				addr = fuzzSpecialKeys[int(b1)%len(fuzzSpecialKeys)]
			}
			if kind == 3 {
				// Resize control: start a migration on addr's shard, or
				// advance one by a bounded run. Plain organizations skip.
				h := sharded.ShardOf(addr)
				if sharded.ShardMigrating(h) {
					forced, _ := sharded.MigrateShard(h, 1+int(b1&7))
					shardedDriver.forget(forced)
				} else {
					sets := 64 << (b1 & 1) // same-size rehash or 2x grow
					_ = sharded.ResizeShardSpec(h, Spec{
						Org:      OrgCuckoo,
						Geometry: Geometry{Ways: 4, Sets: sets},
					})
				}
				continue
			}
			if mirror.wouldOverflow(kind, addr, cache) {
				continue // a real cache would have evicted first
			}
			mirror.apply(kind, addr, cache)
			for _, fd := range drivers {
				fd.apply(kind, addr, cache)
			}
			if i%512 == 511 {
				for _, fd := range drivers {
					fd.audit(t, i)
				}
			}
		}
		// Settle any live migration, then final audit.
		shardedDriver.forget(sharded.FinishResizes())
		for _, fd := range drivers {
			fd.audit(t, nops)
		}
	})
}
