package directory

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cuckoodir/internal/core"
	"cuckoodir/internal/rng"
)

func shardedSpec() Spec {
	return Spec{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 256}}
}

// randomAccesses generates a deterministic mixed access stream over a
// bounded address range (so shards see real sharing and eviction churn).
func randomAccesses(seed uint64, n int) []Access {
	r := rng.New(seed)
	accs := make([]Access, n)
	for i := range accs {
		kind := AccessRead
		switch r.Uint64() % 4 {
		case 0:
			kind = AccessWrite
		case 1:
			kind = AccessEvict
		}
		accs[i] = Access{
			Kind:  kind,
			Addr:  r.Uint64() % 2048,
			Cache: int(r.Uint64() % 16),
		}
	}
	return accs
}

// TestShardedMatchesUnsharded: routing through a ShardedDirectory gives
// exactly the Ops that routing the same stream by hand to identical
// standalone slices gives.
func TestShardedMatchesUnsharded(t *testing.T) {
	const shards = 4
	spec := shardedSpec()
	sharded, err := BuildSharded(spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]Directory, shards)
	for i := range refs {
		refs[i] = MustBuild(spec)
	}
	for i, a := range randomAccesses(42, 20000) {
		ref := refs[sharded.home(a.Addr)]
		var got, want Op
		switch a.Kind {
		case AccessRead:
			got, want = sharded.Read(a.Addr, a.Cache), ref.Read(a.Addr, a.Cache)
		case AccessWrite:
			got, want = sharded.Write(a.Addr, a.Cache), ref.Write(a.Addr, a.Cache)
		case AccessEvict:
			sharded.Evict(a.Addr, a.Cache)
			ref.Evict(a.Addr, a.Cache)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("access %d (%v %#x cache %d): sharded op %+v, reference op %+v",
				i, a.Kind, a.Addr, a.Cache, got, want)
		}
	}
	wantLen := 0
	for _, ref := range refs {
		wantLen += ref.Len()
	}
	if sharded.Len() != wantLen {
		t.Errorf("Len = %d, references hold %d", sharded.Len(), wantLen)
	}
	if got, want := sharded.Capacity(), shards*spec.Geometry.Entries(); got != want {
		t.Errorf("Capacity = %d, want %d", got, want)
	}
	// Merged stats equal the sum of the per-reference stats.
	st := sharded.Stats()
	var events, forced uint64
	for _, ref := range refs {
		events += ref.Stats().Events.Total()
		forced += ref.Stats().ForcedEvictions
	}
	if st.Events.Total() != events || st.ForcedEvictions != forced {
		t.Errorf("merged stats (events %d, forced %d) != reference sums (events %d, forced %d)",
			st.Events.Total(), st.ForcedEvictions, events, forced)
	}
}

// TestShardedApplyMatchesPointOps: the batched Apply path returns the
// same Ops, in input order, as per-operation calls on an identically
// built directory.
func TestShardedApplyMatchesPointOps(t *testing.T) {
	for _, shards := range []int{1, 4} {
		batched, err := BuildSharded(shardedSpec(), shards)
		if err != nil {
			t.Fatal(err)
		}
		pointwise, err := BuildSharded(shardedSpec(), shards)
		if err != nil {
			t.Fatal(err)
		}
		accs := randomAccesses(7, 20000)
		for start := 0; start < len(accs); start += 512 {
			batch := accs[start:min(start+512, len(accs))]
			got := batched.Apply(batch)
			if len(got) != len(batch) {
				t.Fatalf("Apply returned %d ops for %d accesses", len(got), len(batch))
			}
			for i, a := range batch {
				var want Op
				switch a.Kind {
				case AccessRead:
					want = pointwise.Read(a.Addr, a.Cache)
				case AccessWrite:
					want = pointwise.Write(a.Addr, a.Cache)
				case AccessEvict:
					pointwise.Evict(a.Addr, a.Cache)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("shards=%d batch@%d[%d]: Apply op %+v, pointwise op %+v",
						shards, start, i, got[i], want)
				}
			}
		}
		if batched.Len() != pointwise.Len() {
			t.Errorf("shards=%d: Len after Apply %d != pointwise %d", shards, batched.Len(), pointwise.Len())
		}
	}
}

// TestShardedApplyEmpty: a nil/empty batch is a no-op.
func TestShardedApplyEmpty(t *testing.T) {
	s, err := BuildSharded(shardedSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if ops := s.Apply(nil); len(ops) != 0 {
		t.Errorf("Apply(nil) returned %d ops", len(ops))
	}
}

// TestShardedConcurrent drives a ShardedDirectory from many goroutines —
// point operations, batches, and snapshot readers at once. Run with
// -race; correctness here is "no race, no panic, and the directory is
// still coherent afterwards".
func TestShardedConcurrent(t *testing.T) {
	s, err := BuildSharded(shardedSpec(), 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			accs := randomAccesses(uint64(w)*1000+1, 4000)
			if w%2 == 0 {
				// Batched driver.
				for start := 0; start < len(accs); start += 128 {
					s.Apply(accs[start:min(start+128, len(accs))])
				}
				return
			}
			// Point-operation driver, with interleaved snapshot reads.
			for i, a := range accs {
				applyOneLocked(s, a)
				if i%1024 == 0 {
					s.Stats()
					s.Len()
					s.Lookup(a.Addr)
				}
			}
		}(w)
	}
	wg.Wait()
	// Post-run coherence: every tracked block has sharers, and ForEach
	// agrees with Len.
	tracked := 0
	s.ForEach(func(addr, sharers uint64) bool {
		if sharers == 0 {
			t.Errorf("block %#x tracked with empty sharer set", addr)
		}
		tracked++
		return true
	})
	if tracked != s.Len() {
		t.Errorf("ForEach visited %d blocks, Len reports %d", tracked, s.Len())
	}
	if got := s.Stats().Events.Total(); got == 0 {
		t.Error("no events recorded after concurrent run")
	}
}

// applyOneLocked routes one access through the public point operations
// and returns its Op (zero for an Evict).
func applyOneLocked(s *ShardedDirectory, a Access) Op {
	switch a.Kind {
	case AccessRead:
		return s.Read(a.Addr, a.Cache)
	case AccessWrite:
		return s.Write(a.Addr, a.Cache)
	default:
		s.Evict(a.Addr, a.Cache)
		return Op{}
	}
}

// TestShardedCapacityReachable: shard homing must not alias with the
// set-index bits of organizations that index by raw low address bits
// (Sparse does: XorFold is the identity). With aliased homing, a shard
// only ever receives addresses whose low bits equal its index and can
// populate 1/shards of its sets, capping aggregate usable capacity at
// one slice's worth; a sequential fill past that point proves the whole
// capacity is reachable.
func TestShardedCapacityReachable(t *testing.T) {
	const shards = 4
	s, err := BuildSharded(Spec{
		Org: OrgSparse, NumCaches: 4,
		Geometry: Geometry{Ways: 8, Sets: 64}, // 512 slots per shard, 2048 total
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	const fill = 1200 // > one slice's 512 slots, < 2048 aggregate
	for addr := uint64(0); addr < fill; addr++ {
		s.Read(addr, 0)
	}
	if got := s.Len(); got < 1000 {
		t.Errorf("sequential fill of %d blocks tracked only %d — homing is starving the shards' sets", fill, got)
	}
}

// TestShardedHeterogeneousStats: a shard resized to another
// organization (ResizeShardSpec) serves next to the others, and Stats
// merges their different attempt-histogram ranges (cuckoo caps at 32,
// sparse at 1) without panicking.
func TestShardedHeterogeneousStats(t *testing.T) {
	s, err := BuildSharded(shardedSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ResizeShardSpec(1, Spec{Org: OrgSparse, Geometry: Geometry{Ways: 8, Sets: 128}}); err != nil {
		t.Fatal(err)
	}
	for _, a := range randomAccesses(3, 5000) {
		applyOneLocked(s, a)
	}
	st := s.Stats()
	if st.Events.Total() == 0 || st.Attempts.Count() == 0 {
		t.Fatal("heterogeneous merge lost data")
	}
	if st.Attempts.Max() < 32 {
		t.Errorf("merged histogram range %d, want >= the cuckoo shard's 32", st.Attempts.Max())
	}
}

// TestShardedApplyUnknownKind: a malformed access panics on the caller's
// stack (recoverably), not inside a worker goroutine, and before any
// access of the batch executes.
func TestShardedApplyUnknownKind(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, err := BuildSharded(shardedSpec(), shards)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shards=%d: Apply with unknown kind did not panic on the caller's stack", shards)
				}
			}()
			s.Apply([]Access{{Kind: AccessRead, Addr: 0x41}, {Kind: AccessEvict + 1, Addr: 0x40}})
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shards=%d: Apply with out-of-range cache did not panic on the caller's stack", shards)
				}
			}()
			s.Apply([]Access{{Kind: AccessRead, Addr: 0x41}, {Kind: AccessRead, Addr: 0x40, Cache: 99}})
		}()
		// No prefix of either rejected batch was applied, and the
		// directory stays usable (no shard left locked).
		if got := s.Len(); got != 0 {
			t.Errorf("shards=%d: %d blocks tracked after rejected batches, want 0", shards, got)
		}
		s.Read(0x80, 0)
		if _, ok := s.Lookup(0x80); !ok {
			t.Errorf("shards=%d: directory unusable after recovered Apply panics", shards)
		}
	}
}

// TestShardedName: the name identifies shard count and inner organization.
func TestShardedName(t *testing.T) {
	s, err := BuildSharded(shardedSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Name(); got != "sharded-4(cuckoo)" {
		t.Errorf("Name = %q", got)
	}
	if s.ShardCount() != 4 || s.NumCaches() != 16 {
		t.Errorf("ShardCount/NumCaches = %d/%d", s.ShardCount(), s.NumCaches())
	}
}

// TestHomeInterleave: low-bit homing sends address i to shard i&mask,
// while the default mixing home decorrelates from the low bits.
func TestHomeInterleave(t *testing.T) {
	spec := shardedSpec()
	spec.Shard = ShardSpec{Count: 4, Home: HomeInterleave}
	d, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	sd := d.(*ShardedDirectory)
	if sd.Home() != HomeInterleave {
		t.Fatalf("home = %s", sd.Home())
	}
	// Fill addresses 0..3: each must land on its own shard under
	// interleaved homing.
	for a := uint64(0); a < 4; a++ {
		sd.Read(a, 0)
	}
	lens := sd.ShardLens()
	for i, n := range lens {
		if n != 1 {
			t.Fatalf("interleave: shard %d holds %d blocks (lens %v)", i, n, lens)
		}
	}
	if got := sd.Name(); got != "sharded-4@interleave(cuckoo)" {
		t.Fatalf("name = %q", got)
	}
}

// TestShardLensSum: ShardLens agrees with Len.
func TestShardLensSum(t *testing.T) {
	d, err := BuildSharded(shardedSpec(), 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 2000; i++ {
		d.Read(r.Uint64()%4096, int(r.Uint64()%16))
	}
	sum := 0
	for _, n := range d.ShardLens() {
		sum += n
	}
	if sum != d.Len() {
		t.Fatalf("ShardLens sum %d != Len %d", sum, d.Len())
	}
}

// TestHomeParse: ParseHome round-trips the String forms.
func TestHomeParse(t *testing.T) {
	for _, h := range []Home{HomeMix, HomeInterleave} {
		got, err := ParseHome(h.String())
		if err != nil || got != h {
			t.Errorf("ParseHome(%q) = %v, %v", h.String(), got, err)
		}
	}
	if _, err := ParseHome("north"); err == nil {
		t.Error("ParseHome accepted nonsense")
	}
}

// TestBuildShardedBadCounts: non-positive and non-power-of-two shard
// counts, and an invalid slice spec, error instead of panicking.
func TestBuildShardedBadCounts(t *testing.T) {
	for _, n := range []int{0, -1, 3, 12} {
		if _, err := BuildSharded(shardedSpec(), n); err == nil {
			t.Errorf("BuildSharded(spec, %d) succeeded", n)
		}
	}
	if _, err := BuildSharded(Spec{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 48}}, 4); err == nil {
		t.Error("BuildSharded with invalid spec succeeded")
	}
}

// TestApplyShardMatchesApply: a shard-affine batch produces the same
// directory contents through ApplyShard as through Apply, and
// wrong-shard or malformed accesses panic before anything applies.
func TestApplyShardMatchesApply(t *testing.T) {
	mk := func() *ShardedDirectory {
		s, err := BuildSharded(shardedSpec(), 4)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	r := rng.New(11)
	groups := make([][]Access, 4)
	var all []Access
	for i := 0; i < 4000; i++ {
		acc := Access{Kind: AccessKind(r.Uint64() % 2), Addr: r.Uint64() % 8192, Cache: int(r.Uint64() % 16)}
		h := a.ShardOf(acc.Addr)
		groups[h] = append(groups[h], acc)
		all = append(all, acc)
	}
	for h, g := range groups {
		a.ApplyShard(h, g)
	}
	b.Apply(all)
	if a.Len() != b.Len() {
		t.Fatalf("ApplyShard len %d != Apply len %d", a.Len(), b.Len())
	}
	b.ForEach(func(addr, sharers uint64) bool {
		got, ok := a.Lookup(addr)
		if !ok || got != sharers {
			t.Fatalf("addr %#x: ApplyShard %#x (ok=%v) != Apply %#x", addr, got, ok, sharers)
		}
		return true
	})

	for name, fn := range map[string]func(){
		"wrong shard": func() {
			addr := uint64(1)
			wrong := (a.ShardOf(addr) + 1) % a.ShardCount()
			a.ApplyShard(wrong, []Access{{Kind: AccessRead, Addr: addr, Cache: 0}})
		},
		"bad kind": func() {
			addr := uint64(1)
			a.ApplyShard(a.ShardOf(addr), []Access{{Kind: 99, Addr: addr, Cache: 0}})
		},
		"bad cache": func() {
			addr := uint64(1)
			a.ApplyShard(a.ShardOf(addr), []Access{{Kind: AccessRead, Addr: addr, Cache: 64}})
		},
		"bad shard index": func() {
			a.ApplyShard(99, nil)
		},
	} {
		before := a.Len()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
		if a.Len() != before {
			t.Errorf("%s: batch partially applied", name)
		}
	}
}

// TestApplyShardOpsMatchesApply: ApplyShardOps records, per access,
// exactly the Op that Apply reports for the same stream, and rejects a
// mis-sized ops slice before touching the directory.
func TestApplyShardOpsMatchesApply(t *testing.T) {
	mk := func() *ShardedDirectory {
		s, err := BuildSharded(shardedSpec(), 4)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	r := rng.New(23)
	groups := make([][]Access, 4)
	for i := 0; i < 4000; i++ {
		acc := Access{Kind: AccessKind(r.Uint64() % 3), Addr: r.Uint64() % 4096, Cache: int(r.Uint64() % 16)}
		groups[a.ShardOf(acc.Addr)] = append(groups[a.ShardOf(acc.Addr)], acc)
	}
	for h, g := range groups {
		ops := make([]Op, len(g))
		a.ApplyShardOps(h, g, ops)
		want := b.Apply(g)
		if !reflect.DeepEqual(ops, want) {
			t.Fatalf("shard %d: ApplyShardOps ops differ from Apply ops", h)
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("ApplyShardOps len %d != Apply len %d", a.Len(), b.Len())
	}

	before := a.Len()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mis-sized ops slice: no panic")
			}
		}()
		addr := uint64(1)
		a.ApplyShardOps(a.ShardOf(addr), []Access{{Kind: AccessRead, Addr: addr, Cache: 0}}, make([]Op, 2))
	}()
	if a.Len() != before {
		t.Error("mis-sized ops slice: batch partially applied")
	}
}

// TestApplyCuckooMatchesInterfacePath is the differential test of
// ApplyShardOps' typed loop (applyCuckoo). One directory takes a
// shard-affine stream through ApplyShardOps, or through ApplyShard when
// no Ops are recorded; its twin takes the same stream through point
// operations, which always dispatch through the Directory interface and
// count through observe. After every round the Ops, per-shard counters,
// merged Stats and census must agree. The load forces evictions and
// multi-attempt inserts. Mid-stream one shard of each twin resizes, is
// stepped and is finished, so it leaves the typed loop for applyOne and
// comes back; the sparse spec never takes the typed loop.
//
// Each shard's round is cut into batches of 0, 1, prefetchDepth-1,
// prefetchDepth and prefetchDepth+1 accesses, then the rest: batches
// shorter than the ring's prefill, as long as it and one access longer.
// The cuckoo specs cover 2, 3, 4 and 8 ways and 2-entry buckets, so
// every shape of applyCuckoo's index ring and of the table's line fills
// runs. The 2560-address stream repeats addresses within prefetchDepth
// accesses of each other, where the ring's early indices must still be
// exact. Every spec is far below fillBytes, so ApplyShardOps runs it
// without fills; each cuckoo spec runs a second time through
// applyFilling, with fills.
func TestApplyCuckooMatchesInterfacePath(t *testing.T) {
	const (
		resized          = 1
		rounds           = 40
		resizeAt         = 12
		finishAt         = 20
		stepRun          = 8
		accessesPerRound = 256
	)
	// 2560 addresses over 16 caches overfill every organization.
	for _, tc := range []struct {
		slice, grown string
		bucket       int
	}{
		{"cuckoo-4x64", "cuckoo-4x128", 0},
		{"cuckoo-2x128", "cuckoo-2x256", 0},
		{"cuckoo-3x64", "cuckoo-3x128", 0},
		{"cuckoo-8x32", "cuckoo-8x64", 0},
		{"cuckoo-4x32", "cuckoo-4x64", 2},
		{"sparse-8x64", "sparse-8x128", 0},
	} {
		cuckoo := strings.HasPrefix(tc.slice, "cuckoo")
		name := fmt.Sprintf("sharded-4(%s)", tc.slice)
		if tc.bucket > 1 {
			name += fmt.Sprintf("/bucket=%d", tc.bucket)
		}
		spec := func(name string) Spec {
			s, ok := ParseSpecName(name)
			if !ok {
				t.Fatalf("ParseSpecName(%q) failed", name)
			}
			s.NumCaches, s.Cuckoo.BucketSize = 16, tc.bucket
			return s
		}
		for _, mode := range []struct{ fill, withOps bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
			if mode.fill && !cuckoo {
				continue
			}
			withOps, sub := mode.withOps, name
			if mode.fill {
				sub += "/fills"
			}
			t.Run(fmt.Sprintf("%s/ops=%v", sub, withOps), func(t *testing.T) {
				mk := func() *ShardedDirectory {
					d, err := BuildSharded(spec(tc.slice), 4)
					if err != nil {
						t.Fatal(err)
					}
					return d
				}
				typed, point := mk(), mk()
				if fill, _ := shardFills(typed, 0); fill {
					t.Fatalf("ApplyShardOps fills on %s, so no subtest runs the index-only loop", name)
				}
				grown := spec(tc.grown)
				r := rng.New(41)
				migratingRounds, near := 0, 0
				for round := 0; round < rounds; round++ {
					for _, d := range []*ShardedDirectory{typed, point} {
						switch round {
						case resizeAt:
							if err := d.ResizeShardSpec(resized, grown); err != nil {
								t.Fatal(err)
							}
						case finishAt:
							d.FinishResize(resized)
						}
					}
					migrating := typed.ShardMigrating(resized)
					if migrating {
						migratingRounds++
					}
					for h, sh := range typed.shards {
						_, fast := sh.dir.(*Cuckoo)
						if want := cuckoo && !(h == resized && migrating); fast != want {
							t.Fatalf("round %d shard %d: takes the typed loop = %v, want %v", round, h, fast, want)
						}
					}
					batches := make([][]Access, typed.ShardCount())
					for i := 0; i < accessesPerRound; i++ {
						kind := AccessRead
						switch r.Uint64() % 4 {
						case 0:
							kind = AccessWrite
						case 1:
							kind = AccessEvict
						}
						a := Access{Kind: kind, Addr: r.Uint64() % 2560, Cache: int(r.Uint64() % 16)}
						h := typed.ShardOf(a.Addr)
						batches[h] = append(batches[h], a)
					}
					for h, rest := range batches {
						for _, n := range []int{0, 1, prefetchDepth - 1, prefetchDepth, prefetchDepth + 1, len(rest)} {
							batch := rest[:min(n, len(rest))]
							rest = rest[len(batch):]
							var ops []Op
							if withOps {
								// Stale slot contents, as in reused engine
								// ticket slots: every slot must be overwritten.
								ops = make([]Op, len(batch))
								for i := range ops {
									ops[i] = Op{Invalidate: ^uint64(0), Attempts: -1}
								}
							}
							switch {
							case mode.fill:
								applyFilling(typed, h, batch, ops)
							case withOps:
								typed.ApplyShardOps(h, batch, ops)
							default:
								typed.ApplyShard(h, batch)
							}
							for i, a := range batch {
								for k := max(i-prefetchDepth+1, 0); k < i; k++ {
									if batch[k].Addr == a.Addr {
										near++
									}
								}
								want := applyOneLocked(point, a)
								if withOps && !reflect.DeepEqual(ops[i], want) {
									t.Fatalf("round %d shard %d batch of %d access %d (%v %#x cache %d): typed Op %+v, point Op %+v",
										round, h, len(batch), i, a.Kind, a.Addr, a.Cache, ops[i], want)
								}
							}
						}
					}
					if migrating {
						typed.MigrateShard(resized, stepRun)
						point.MigrateShard(resized, stepRun)
					}
					if got, want := typed.CountersByShard(), point.CountersByShard(); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: CountersByShard %+v, point %+v", round, got, want)
					}
					if got, want := typed.Stats(), point.Stats(); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: Stats differ:\n typed %+v\n point %+v", round, got, want)
					}
					if got, want := census(t, typed), census(t, point); !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d: census differs (%d vs %d entries)", round, len(got), len(want))
					}
				}
				if near == 0 {
					t.Fatalf("no batch applied one address twice within %d accesses", prefetchDepth)
				}
				if migratingRounds == 0 || typed.ShardMigrating(resized) {
					t.Fatalf("resize ran over %d rounds and is migrating at the end = %v; want > 0 rounds, finished",
						migratingRounds, typed.ShardMigrating(resized))
				}
				// The comparisons above are vacuous for the forced and
				// multi-attempt counters unless the stream produced them.
				st, c := typed.Stats(), typed.Counters()
				if st.ForcedEvictions == 0 || c.ForcedBlocks == 0 {
					t.Fatalf("stream forced no evictions (ForcedEvictions %d, ForcedBlocks %d)", st.ForcedEvictions, c.ForcedBlocks)
				}
				if cuckoo && st.Attempts.FractionAtLeast(2) == 0 {
					t.Fatal("no insertion took more than one attempt")
				}
			})
		}
	}
}

// applyFilling is ApplyShardOps with line fills forced on: a plain
// cuckoo shard runs applyCuckoo with fills whatever the directory's
// size, and any other shard takes ApplyShardOps.
func applyFilling(s *ShardedDirectory, h int, batch []Access, ops []Op) {
	sh := s.shards[h]
	sh.mu.Lock()
	cd, ok := sh.dir.(*Cuckoo)
	if !ok {
		sh.mu.Unlock()
		s.ApplyShardOps(h, batch, ops)
		return
	}
	var c ShardCounters
	applyCuckoo(cd.d, batch, ops, &c, true)
	sh.ctr.flush(c)
	sh.mu.Unlock()
}

// shardFills reports whether ApplyShardOps would start line fills on
// shard h, and whether the shard takes the typed loop at all.
func shardFills(s *ShardedDirectory, h int) (fill, typed bool) {
	sh := s.shards[h]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cd, ok := sh.dir.(*Cuckoo)
	return ok && s.fills(cd.d), ok
}

// TestApplyFillGate pins applyCuckoo's size gate: a 256 KiB directory
// (replay-dss-churn's) gets no line fills, an 8 MiB one
// (replay-oltp-warm's) does, and resizing every shard across fillBytes
// flips the mode both ways.
func TestApplyFillGate(t *testing.T) {
	spec := func(sets int) Spec {
		return Spec{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: sets}}
	}
	want := func(d *ShardedDirectory, fill bool) {
		t.Helper()
		for h := range d.ShardCount() {
			got, typed := shardFills(d, h)
			if !typed || got != fill {
				t.Fatalf("%s shard %d: fills = %v (typed loop %v), want %v", d.Name(), h, got, typed, fill)
			}
		}
	}
	small, err := BuildSharded(spec(512), 8)
	if err != nil {
		t.Fatal(err)
	}
	big, err := BuildSharded(spec(16384), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := 8 * big.shards[0].dir.(*Cuckoo).d.TableBytes(); got != 8<<20 {
		t.Fatalf("8 x cuckoo-4x16384 holds %d pair bytes, want 8 MiB", got)
	}
	want(small, false)
	want(big, true)
	for _, step := range []struct {
		sets int
		fill bool
	}{{16384, true}, {512, false}} {
		for h := range small.ShardCount() {
			if err := small.ResizeShardSpec(h, spec(step.sets)); err != nil {
				t.Fatal(err)
			}
			small.FinishResize(h)
		}
		want(small, step.fill)
	}
}

// TestShardedCounters verifies the lock-free counter snapshot agrees
// with the ground truth — the locked Stats merge and a replayed local
// tally — after point ops, Apply batches and ApplyShard batches.
func TestShardedCounters(t *testing.T) {
	d, err := BuildSharded(shardedSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	accs := randomAccesses(3, 6000)
	var want ShardCounters
	// Drive one third through each entry point, tallying locally.
	third := len(accs) / 3
	for _, a := range accs[:third] {
		var op Op
		switch a.Kind {
		case AccessRead:
			op = d.Read(a.Addr, a.Cache)
		case AccessWrite:
			op = d.Write(a.Addr, a.Cache)
		default:
			d.Evict(a.Addr, a.Cache)
		}
		want.observe(a.Kind, op)
	}
	batch := accs[third : 2*third]
	ops := d.Apply(batch)
	for i, a := range batch {
		want.observe(a.Kind, ops[i])
	}
	// ApplyShard records no Ops for the caller, but the counters must
	// still account for every access (shard-affine singleton batches).
	for _, a := range accs[2*third:] {
		d.ApplyShard(d.ShardOf(a.Addr), []Access{a})
	}
	got := d.Counters()
	if got.Ops() != uint64(len(accs)) {
		t.Fatalf("Ops() = %d, want %d", got.Ops(), len(accs))
	}
	if got.Reads < want.Reads || got.Writes < want.Writes || got.Evicts < want.Evicts {
		t.Fatalf("kind counters lost accesses: %+v vs partial tally %+v", got, want)
	}
	// The insertion-side counters must agree exactly with the locked
	// Stats merge (Attempts/Inserts is the histogram's mean).
	st := d.Stats()
	if mean := st.Attempts.Mean(); got.Inserts > 0 &&
		(got.MeanAttempts()-mean > 1e-9 || mean-got.MeanAttempts() > 1e-9) {
		t.Fatalf("MeanAttempts = %v, Stats mean = %v", got.MeanAttempts(), mean)
	}
	if ins := st.Events[core.EvInsertTag]; got.Inserts != ins {
		t.Fatalf("Inserts = %d, Stats insert-tag = %d", got.Inserts, ins)
	}
	if got.Forced != st.ForcedEvictions {
		t.Fatalf("Forced = %d, Stats.ForcedEvictions = %d", got.Forced, st.ForcedEvictions)
	}
	if got.ForcedBlocks != st.ForcedBlocks {
		t.Fatalf("ForcedBlocks = %d, Stats.ForcedBlocks = %d", got.ForcedBlocks, st.ForcedBlocks)
	}
	// Per-shard view sums to the merged view.
	var sum ShardCounters
	for _, c := range d.CountersByShard() {
		sum.add(c)
	}
	if sum != got {
		t.Fatalf("CountersByShard sum %+v != Counters %+v", sum, got)
	}
	// ResetStats zeroes both views together.
	d.ResetStats()
	if c := d.Counters(); c != (ShardCounters{}) {
		t.Fatalf("Counters after ResetStats = %+v", c)
	}
}

// TestShardedCountersConcurrent races batch appliers, point operations
// and lock-free Counters pollers; with -race this proves the polling
// path takes no lock and involves no data race, and afterwards the
// counters must account for every access exactly once.
func TestShardedCountersConcurrent(t *testing.T) {
	d, err := BuildSharded(shardedSpec(), 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 2000
	var wg, pollers sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := d.Counters()
				if c.Ops() < last {
					t.Error("Counters went backwards")
					return
				}
				last = c.Ops()
				_ = d.CountersByShard()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			accs := randomAccesses(uint64(w+100), perWorker)
			d.Apply(accs[:perWorker/2])
			for _, a := range accs[perWorker/2:] {
				switch a.Kind {
				case AccessRead:
					d.Read(a.Addr, a.Cache)
				case AccessWrite:
					d.Write(a.Addr, a.Cache)
				default:
					d.Evict(a.Addr, a.Cache)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
	c := d.Counters()
	if c.Ops() != workers*perWorker {
		t.Fatalf("Ops() = %d, want %d", c.Ops(), workers*perWorker)
	}
	if ins := d.Stats().Events[core.EvInsertTag]; c.Inserts != ins {
		t.Fatalf("Inserts = %d, Stats insert-tag = %d", c.Inserts, ins)
	}
}
