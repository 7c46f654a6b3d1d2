// Package tile is the tile layer both simulators share: the tracked
// private caches and one directory slice per tile, homed by static
// block-address interleaving (the paper's Figure 2). cmpsim and
// coherence build, home, merge slice statistics and audit only through
// it, so they cannot drift apart.
package tile

import (
	"fmt"
	"math/bits"

	"cuckoodir/internal/cache"
	"cuckoodir/internal/core"
	"cuckoodir/internal/directory"
)

// Tiles is one system's caches and directory slices. A cache's index
// is its sharer bit in every slice.
type Tiles struct {
	Caches []*cache.Cache
	Slices []directory.Directory
	mask   uint64
}

// New binds spec to the cache count and checks it against caches of
// sets x assoc frames (Spec.ValidateFor), then builds the caches and
// one slice per tile. sets and slices must be powers of two, as the
// simulators' configurations check.
func New(caches, sets, assoc, slices int, spec directory.Spec) (*Tiles, error) {
	spec = spec.WithCaches(caches)
	if err := spec.ValidateFor(sets, assoc); err != nil {
		return nil, err
	}
	t := &Tiles{mask: uint64(slices - 1)}
	for range caches {
		t.Caches = append(t.Caches, cache.New(cache.Config{Sets: sets, Assoc: assoc}))
	}
	for range slices {
		t.Slices = append(t.Slices, directory.MustBuild(spec))
	}
	return t, nil
}

// Home returns the index of addr's home slice, its low address bits;
// the slice is handed the full address.
func (t *Tiles) Home(addr uint64) int { return int(addr & t.mask) }

// DirStats returns the slices' statistics merged into one record.
func (t *Tiles) DirStats() *directory.Stats {
	snaps := make([]*directory.Stats, len(t.Slices))
	for i, d := range t.Slices {
		snaps[i] = d.Stats()
	}
	return core.MergeDirStats(snaps...)
}

// ResetStats zeroes every cache's and slice's statistics, keeping
// their contents.
func (t *Tiles) ResetStats() {
	for _, c := range t.Caches {
		c.ResetStats()
	}
	for _, d := range t.Slices {
		d.ResetStats()
	}
}

// Check audits the caches against the slices both ways and returns the
// first violation: every cached block must be listed as a sharer at its
// home slice (all organizations promise a superset of the holders), and
// every sharer a slice lists must hold the block. visit, when non-nil,
// sees each cached block that passed the first check.
func (t *Tiles) Check(visit func(cache int, addr uint64, st cache.State)) error {
	for cid, c := range t.Caches {
		var err error
		c.ForEach(func(addr uint64, st cache.State) bool {
			m, ok := t.Slices[t.Home(addr)].Lookup(addr)
			if !ok || m&(1<<uint(cid)) == 0 {
				err = fmt.Errorf("tile: cache %d holds %#x but its home slice does not track it", cid, addr)
				return false
			}
			if visit != nil {
				visit(cid, addr, st)
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	for si, d := range t.Slices {
		var err error
		d.ForEach(func(addr, sharers uint64) bool {
			if sharers == 0 {
				err = fmt.Errorf("tile: slice %d tracks %#x with no sharers", si, addr)
				return false
			}
			for m := sharers; m != 0; m &= m - 1 {
				if cid := bits.TrailingZeros64(m); !t.Caches[cid].Contains(addr) {
					err = fmt.Errorf("tile: slice %d lists cache %d for %#x, which it does not hold", si, cid, addr)
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}
