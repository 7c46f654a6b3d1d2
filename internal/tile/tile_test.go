package tile

import (
	"strings"
	"testing"

	"cuckoodir/internal/cache"
	"cuckoodir/internal/directory"
)

var idealSpec = directory.Spec{Org: directory.OrgIdeal}

// newTiles builds 4 caches of 16x2 frames over 4 ideal slices.
func newTiles(t *testing.T) *Tiles {
	t.Helper()
	tl, err := New(4, 16, 2, 4, idealSpec)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// fill caches addr in cache c and records c as a sharer at addr's home.
func fill(tl *Tiles, c int, addr uint64, write bool) {
	tl.Caches[c].Access(addr, write)
	if write {
		tl.Slices[tl.Home(addr)].Write(addr, c)
	} else {
		tl.Slices[tl.Home(addr)].Read(addr, c)
	}
}

// TestNew: the spec is bound to the cache count and checked against the
// caches' geometry before anything is built.
func TestNew(t *testing.T) {
	tl := newTiles(t)
	if len(tl.Caches) != 4 || len(tl.Slices) != 4 {
		t.Fatalf("built %d caches, %d slices; want 4, 4", len(tl.Caches), len(tl.Slices))
	}
	for i, d := range tl.Slices {
		if d.NumCaches() != 4 {
			t.Errorf("slice %d tracks %d caches, want 4", i, d.NumCaches())
		}
	}
	narrow := directory.Spec{Org: directory.OrgDuplicateTag, Geometry: directory.Geometry{Ways: 1, Sets: 16}}
	if _, err := New(4, 16, 2, 4, narrow); err == nil || !strings.Contains(err.Error(), "share a set") {
		t.Errorf("dup-tag narrower than the caches: err = %v", err)
	}
	if _, err := New(65, 16, 2, 4, idealSpec); err == nil {
		t.Error("65 caches accepted")
	}
}

// TestHome: static interleaving on the low address bits.
func TestHome(t *testing.T) {
	tl := newTiles(t)
	for addr, want := range map[uint64]int{0: 0, 1: 1, 3: 3, 4: 0, 0x1237: 3} {
		if got := tl.Home(addr); got != want {
			t.Errorf("Home(%#x) = %d, want %d", addr, got, want)
		}
	}
}

// TestStatsMergeAndReset: DirStats merges every slice's events, and
// ResetStats zeroes cache and slice statistics but keeps contents.
func TestStatsMergeAndReset(t *testing.T) {
	tl := newTiles(t)
	for addr := uint64(0); addr < 8; addr++ {
		fill(tl, int(addr%4), addr, false)
	}
	if got := tl.DirStats().Events.Total(); got != 8 {
		t.Fatalf("merged events = %d, want 8 (one insert per block)", got)
	}
	tl.ResetStats()
	if got := tl.DirStats().Events.Total(); got != 0 {
		t.Errorf("events after ResetStats = %d", got)
	}
	for i, c := range tl.Caches {
		if st := c.Stats(); st != (cache.Stats{}) {
			t.Errorf("cache %d stats after ResetStats = %+v", i, st)
		}
	}
	if err := tl.Check(nil); err != nil {
		t.Errorf("ResetStats broke contents: %v", err)
	}
}

// noSharers is a slice stub that reports one entry with an empty sharer
// set.
type noSharers struct{ directory.Directory }

func (noSharers) ForEach(fn func(addr, sharers uint64) bool) { fn(0x40, 0) }

// TestCheck: a consistent tile passes and visit sees every cached block
// with its state; each way a cache and a slice can disagree is
// reported.
func TestCheck(t *testing.T) {
	tl := newTiles(t)
	fill(tl, 0, 0x10, false)
	fill(tl, 1, 0x10, false)
	fill(tl, 2, 0x21, true)
	seen := map[uint64][]cache.State{}
	if err := tl.Check(func(c int, addr uint64, st cache.State) {
		seen[addr] = append(seen[addr], st)
	}); err != nil {
		t.Fatalf("clean tile: %v", err)
	}
	if len(seen[0x10]) != 2 || len(seen[0x21]) != 1 || seen[0x21][0] != cache.Modified {
		t.Errorf("visit saw %v", seen)
	}

	cases := []struct {
		name    string
		corrupt func(tl *Tiles)
		want    string
	}{
		{"cached block its home slice does not track", func(tl *Tiles) {
			tl.Caches[3].Access(0x33, false)
		}, "cache 3 holds 0x33 but its home slice does not track it"},
		{"slice lists a cache that does not hold the block", func(tl *Tiles) {
			tl.Slices[tl.Home(0x42)].Read(0x42, 1)
		}, "slice 2 lists cache 1 for 0x42, which it does not hold"},
		{"slice entry with no sharers", func(tl *Tiles) {
			tl.Slices[1] = noSharers{tl.Slices[1]}
		}, "slice 1 tracks 0x40 with no sharers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tl := newTiles(t)
			fill(tl, 0, 0x10, false)
			tc.corrupt(tl)
			err := tl.Check(nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
