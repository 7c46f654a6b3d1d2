package main

import (
	"fmt"
	"io"
	"math/bits"

	"cuckoodir/internal/directory"
	"cuckoodir/internal/qos"
	"cuckoodir/internal/replay"
	"cuckoodir/internal/trace"
	"cuckoodir/internal/workload"
)

// The modelled system: 16 private caches behind an 8-shard cuckoo
// directory of 4-way slices, applied in the replay pipeline's batch size.
const (
	cores     = 16
	shards    = 8
	ways      = 4
	batchSize = replay.DefaultBatchSize
)

// The churn workload's private caches (64 sets x 16 ways = 1024 blocks
// per core) and its directory slices, whose 8 x 4 x 512 = 16384 entries
// are 1x the caches' aggregate 16 x 1024 blocks.
const (
	cacheSets = 64
	cacheWays = 16
	dssSets   = 512
)

// The engine client's request shapes: foreground requests of fgBatch
// accesses kept depth-deep, and one background batch of bgBatch accesses
// after every fgPerBg foreground requests.
const (
	fgBatch = 64
	bgBatch = 256
	fgPerBg = 4
	depth   = 4
)

// buildDir builds the benchmark's sharded cuckoo directory with the
// given per-way set count.
func buildDir(sets int) (*directory.ShardedDirectory, error) {
	return directory.BuildSharded(directory.Spec{
		Org:       directory.OrgCuckoo,
		NumCaches: cores,
		Geometry:  directory.Geometry{Ways: ways, Sets: sets},
	}, shards)
}

// synthesize generates n records of a workload profile's raw access
// stream, interleaved round-robin over the cores.
func synthesize(profile string, seed uint64, n int) ([]trace.Record, error) {
	prof, err := workload.ByName(profile)
	if err != nil {
		return nil, err
	}
	src := replay.Synthesize(prof, cores, seed, n)
	recs := make([]trace.Record, 0, n)
	for {
		r, err := src.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("synthesizing %s: %w", profile, err)
		}
		recs = append(recs, r)
	}
}

// fills converts records to the directory fills replay.Run applies for
// them: a store is a Write, anything else a Read.
func fills(recs []trace.Record) []directory.Access {
	out := make([]directory.Access, len(recs))
	for i, r := range recs {
		kind := directory.AccessRead
		if r.Access.Write {
			kind = directory.AccessWrite
		}
		out[i] = directory.Access{Kind: kind, Addr: r.Access.Addr, Cache: r.Core}
	}
	return out
}

// records converts the fills of an access stream back to records,
// dropping evictions, which replay.Run cannot express.
func records(accs []directory.Access) []trace.Record {
	out := make([]trace.Record, 0, len(accs))
	for _, a := range accs {
		if a.Kind == directory.AccessEvict {
			continue
		}
		out = append(out, trace.Record{Core: a.Cache,
			Access: workload.Access{Addr: a.Addr, Write: a.Kind == directory.AccessWrite}})
	}
	return out
}

// batch is one shard-affine run of accesses for ApplyShard.
type batch struct {
	shard int
	accs  []directory.Access
}

// route packs accesses into shard-affine batches the way replay.Run's
// producer does: each access joins its home shard's pending batch, a
// batch is emitted when full, and partial batches are emitted at the end.
// Per-block order is preserved.
func route(dir *directory.ShardedDirectory, accs []directory.Access) []batch {
	pending := make([][]directory.Access, dir.ShardCount())
	var out []batch
	for _, a := range accs {
		h := dir.ShardOf(a.Addr)
		if pending[h] == nil {
			pending[h] = make([]directory.Access, 0, batchSize)
		}
		pending[h] = append(pending[h], a)
		if len(pending[h]) == batchSize {
			out = append(out, batch{shard: h, accs: pending[h]})
			pending[h] = nil
		}
	}
	for h, p := range pending {
		if len(p) > 0 {
			out = append(out, batch{shard: h, accs: p})
		}
	}
	return out
}

// piece is one engine submission: a foreground request or a background
// batch.
type piece struct {
	class qos.Class
	accs  []directory.Access
}

// cut splits an access stream into the engine client's submission
// sequence: fgPerBg foreground requests of fgBatch accesses, then one
// background batch of bgBatch accesses, repeated. Every access lands in
// exactly one piece.
func cut(accs []directory.Access) []piece {
	var out []piece
	for i, n := 0, 0; i < len(accs); n++ {
		class, size := qos.Foreground, fgBatch
		if n%(fgPerBg+1) == fgPerBg {
			class, size = qos.Background, bgBatch
		}
		end := min(i+size, len(accs))
		out = append(out, piece{class: class, accs: accs[i:end]})
		i = end
	}
	return out
}

// cacheModel is the churn workload's private caches: per core a
// set-associative LRU cache, plus the set of cores holding each block.
// It turns a raw access stream into the directory's event stream: a fill
// on a miss (Write for a store), a Write on the first store to a clean
// line, and an Evict for every victim. A store removes the other cores'
// copies and a read fill cleans them, as the directory's own Write and
// Read semantics assume.
type cacheModel struct {
	tags    [][]uint64 // [core][set*cacheWays+way]; emptyTag when vacant
	stamp   [][]uint64 // LRU time of each line
	dirty   [][]bool
	clock   uint64
	holders map[uint64]uint64 // block -> mask of cores holding it
	out     []directory.Access
}

const emptyTag = ^uint64(0)

func newCacheModel() *cacheModel {
	m := &cacheModel{holders: make(map[uint64]uint64)}
	for c := 0; c < cores; c++ {
		tags := make([]uint64, cacheSets*cacheWays)
		for i := range tags {
			tags[i] = emptyTag
		}
		m.tags = append(m.tags, tags)
		m.stamp = append(m.stamp, make([]uint64, cacheSets*cacheWays))
		m.dirty = append(m.dirty, make([]bool, cacheSets*cacheWays))
	}
	return m
}

// slot returns the line of core c holding addr, or -1.
func (m *cacheModel) slot(c int, addr uint64) int {
	base := int(addr%cacheSets) * cacheWays
	for w := 0; w < cacheWays; w++ {
		if m.tags[c][base+w] == addr {
			return base + w
		}
	}
	return -1
}

// others applies fn to every line of another core than c holding addr.
func (m *cacheModel) others(c int, addr uint64, fn func(core, line int)) {
	for mask := m.holders[addr] &^ (1 << uint(c)); mask != 0; mask &= mask - 1 {
		o := bits.TrailingZeros64(mask)
		fn(o, m.slot(o, addr))
	}
}

// access runs one raw access of core c through the model.
func (m *cacheModel) access(c int, addr uint64, write bool) {
	m.clock++
	bit := uint64(1) << uint(c)
	if s := m.slot(c, addr); s >= 0 {
		m.stamp[c][s] = m.clock
		if write && !m.dirty[c][s] {
			m.dirty[c][s] = true
			m.out = append(m.out, directory.Access{Kind: directory.AccessWrite, Addr: addr, Cache: c})
			m.invalidateOthers(c, addr)
		}
		return
	}
	base := int(addr%cacheSets) * cacheWays
	victim := base
	for w := 0; w < cacheWays; w++ {
		s := base + w
		if m.tags[c][s] == emptyTag {
			victim = s
			break
		}
		if m.stamp[c][s] < m.stamp[c][victim] {
			victim = s
		}
	}
	if old := m.tags[c][victim]; old != emptyTag {
		m.out = append(m.out, directory.Access{Kind: directory.AccessEvict, Addr: old, Cache: c})
		m.drop(old, bit)
	}
	m.tags[c][victim], m.stamp[c][victim], m.dirty[c][victim] = addr, m.clock, write
	if write {
		m.out = append(m.out, directory.Access{Kind: directory.AccessWrite, Addr: addr, Cache: c})
		m.invalidateOthers(c, addr)
	} else {
		m.out = append(m.out, directory.Access{Kind: directory.AccessRead, Addr: addr, Cache: c})
		m.others(c, addr, func(o, line int) { m.dirty[o][line] = false })
	}
	m.holders[addr] |= bit
}

// invalidateOthers removes every other core's copy of addr.
func (m *cacheModel) invalidateOthers(c int, addr uint64) {
	m.others(c, addr, func(o, line int) { m.tags[o][line] = emptyTag })
	m.holders[addr] &= 1 << uint(c)
}

// drop removes core bit from addr's holders.
func (m *cacheModel) drop(addr, bit uint64) {
	if h := m.holders[addr] &^ bit; h != 0 {
		m.holders[addr] = h
	} else {
		delete(m.holders, addr)
	}
}

// flush evicts every line of every cache, emptying the model.
func (m *cacheModel) flush() {
	for c := 0; c < cores; c++ {
		for s, addr := range m.tags[c] {
			if addr != emptyTag {
				m.out = append(m.out, directory.Access{Kind: directory.AccessEvict, Addr: addr, Cache: c})
				m.drop(addr, 1<<uint(c))
				m.tags[c][s] = emptyTag
			}
		}
	}
}

// churnCycle is one cycle of the churn workload: the body the cache
// model emits from empty caches, and the flush that evicts every line
// again, so that the directory ends the cycle empty and the next cycle
// repeats it.
type churnCycle struct {
	body, flush []directory.Access
	// held is the model's block -> holder mask at the end of the body.
	held map[uint64]uint64
}

// churn runs the raw records through a fresh cache model.
func churn(recs []trace.Record) churnCycle {
	m := newCacheModel()
	for _, r := range recs {
		m.access(r.Core, r.Access.Addr, r.Access.Write)
	}
	cy := churnCycle{body: m.out, held: make(map[uint64]uint64, len(m.holders))}
	for a, h := range m.holders {
		cy.held[a] = h
	}
	m.out = nil
	m.flush()
	cy.flush = m.out
	return cy
}
