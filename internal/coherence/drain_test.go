package coherence

import (
	"testing"

	"cuckoodir/internal/cache"
	"cuckoodir/internal/directory"
)

// simState flattens the functionally-visible simulation state: every
// cache's (addr, state) set and every directory slice's (addr, sharers)
// and (addr, owner) sets.
type simState struct {
	caches []map[uint64]cache.State
	dirs   []map[uint64]uint64
	owned  []map[uint64]int
}

func captureState(sys *System) simState {
	st := simState{}
	for _, c := range sys.tiles.Caches {
		m := map[uint64]cache.State{}
		c.ForEach(func(addr uint64, s cache.State) bool { m[addr] = s; return true })
		st.caches = append(st.caches, m)
	}
	for _, d := range sys.dirs {
		m := map[uint64]uint64{}
		d.dir.ForEach(func(addr, sharers uint64) bool { m[addr] = sharers; return true })
		st.dirs = append(st.dirs, m)
		o := map[uint64]int{}
		for addr, owner := range d.owned {
			o[addr] = owner
		}
		st.owned = append(st.owned, o)
	}
	return st
}

func diffState(t *testing.T, got, want simState) {
	t.Helper()
	for i := range want.caches {
		if len(got.caches[i]) != len(want.caches[i]) {
			t.Fatalf("cache %d: %d blocks vs %d", i, len(got.caches[i]), len(want.caches[i]))
		}
		for addr, s := range want.caches[i] {
			if g, ok := got.caches[i][addr]; !ok || g != s {
				t.Fatalf("cache %d addr %#x: state %v (present=%v), want %v", i, addr, g, ok, s)
			}
		}
	}
	for i := range want.dirs {
		if len(got.dirs[i]) != len(want.dirs[i]) {
			t.Fatalf("slice %d: %d entries vs %d", i, len(got.dirs[i]), len(want.dirs[i]))
		}
		for addr, sh := range want.dirs[i] {
			if g, ok := got.dirs[i][addr]; !ok || g != sh {
				t.Fatalf("slice %d addr %#x: sharers %#x (present=%v), want %#x", i, addr, g, ok, sh)
			}
		}
		if len(got.owned[i]) != len(want.owned[i]) {
			t.Fatalf("slice %d: %d owned blocks vs %d", i, len(got.owned[i]), len(want.owned[i]))
		}
		for addr, owner := range want.owned[i] {
			if g, ok := got.owned[i][addr]; !ok || g != owner {
				t.Fatalf("slice %d addr %#x: owner %d (present=%v), want %d", i, addr, g, ok, owner)
			}
		}
	}
}

// TestBatchDrainStateMatchesPerMessage: Drain, which runs the calendar
// dry in one call, leaves the calendar empty and IDENTICAL directory
// and cache state, simulated time, traffic and statistics to a twin run
// on the same seed whose in-flight messages are delivered one event at
// a time — and both pass the consistency audit. Swept over seeds,
// directory organizations and an insertion-heavy config whose wide
// occupancy windows queue more requests behind each insertion. (The
// test once compared the slice's batch-drain mode with the per-message
// drain; the mode is gone, and this is the half that still applies.)
func TestBatchDrainStateMatchesPerMessage(t *testing.T) {
	slowInsert := smallCfg()
	slowInsert.InsertCycle = 8 // widen occupancy windows: more queueing behind insertions
	cases := []struct {
		name string
		cfg  Config
		spec directory.Spec
		seed uint64
	}{
		{"ideal", smallCfg(), idealSpec, 3},
		{"cuckoo", smallCfg(), cuckooSpec, 5},
		{"cuckoo-seed7", smallCfg(), cuckooSpec, 7},
		{"cuckoo-slow-insert", slowInsert, cuckooSpec, 9},
	}
	const accesses = 30_000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bat := mustNew(t, tc.cfg, testProfile(), tc.seed, tc.spec)
			bat.Run(accesses)
			bat.Drain()
			if n := bat.q.Pending(); n != 0 {
				t.Fatalf("Drain left %d events pending", n)
			}

			ref := mustNew(t, tc.cfg, testProfile(), tc.seed, tc.spec)
			ref.Run(accesses)
			for ref.q.Step() {
			}

			if err := ref.CheckConsistency(); err != nil {
				t.Fatalf("per-message audit: %v", err)
			}
			if err := bat.CheckConsistency(); err != nil {
				t.Fatalf("Drain audit: %v", err)
			}
			if ref.Now() != bat.Now() {
				t.Fatalf("simulated time diverged: per-message %d, Drain %d", ref.Now(), bat.Now())
			}
			if rm, bm := ref.MeshStats(), bat.MeshStats(); rm != bm {
				t.Fatalf("mesh traffic diverged:\nper-message %+v\nDrain %+v", rm, bm)
			}
			if rc, bc := ref.CoreStats(), bat.CoreStats(); rc != bc {
				t.Fatalf("core stats diverged:\nper-message %+v\nDrain %+v", rc, bc)
			}
			if rd, bd := ref.DirStats(), bat.DirStats(); rd != bd {
				t.Fatalf("dir timing diverged:\nper-message %+v\nDrain %+v", rd, bd)
			}
			diffState(t, captureState(bat), captureState(ref))
		})
	}
}
