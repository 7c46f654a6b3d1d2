package directory

import (
	"testing"

	"cuckoodir/internal/core"
	"cuckoodir/internal/rng"
	"cuckoodir/internal/stats"
)

func TestElbowBasics(t *testing.T) {
	d := NewElbow(4, 64, 8)
	d.Read(0x10, 1)
	d.Read(0x10, 3)
	m, ok := d.Lookup(0x10)
	if !ok || m != 0b1010 {
		t.Fatalf("Lookup = %#b", m)
	}
	op := d.Write(0x10, 1)
	if op.Invalidate != 0b1000 {
		t.Fatalf("Invalidate = %#b", op.Invalidate)
	}
	d.Evict(0x10, 1)
	if _, ok := d.Lookup(0x10); ok {
		t.Fatal("entry not freed")
	}
	if d.Name() != "elbow" || d.Capacity() != 256 || d.NumCaches() != 8 {
		t.Fatal("metadata wrong")
	}
}

func TestElbowDisplacesOnce(t *testing.T) {
	// Fill until conflicts occur; the structure must record successful
	// single displacements and keep every surviving key findable.
	d := NewElbow(2, 64, 4)
	r := rng.New(99)
	live := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		addr := r.Uint64()
		op := d.Read(addr, 0)
		live[addr] = true
		for _, f := range op.Forced {
			delete(live, f.Addr)
		}
	}
	if d.Stats().Attempts.Bucket(2) == 0 {
		t.Fatal("no elbow displacements under pressure")
	}
	for addr := range live {
		if _, ok := d.Lookup(addr); !ok {
			t.Fatalf("live key %#x lost", addr)
		}
	}
	if d.Len() != len(live) {
		t.Fatalf("Len %d != live %d", d.Len(), len(live))
	}
}

// TestElbowBetweenSkewedAndCuckoo asserts the §6 ordering on a random
// fill at high occupancy: skewed >= elbow >= cuckoo forced evictions,
// with elbow strictly better than skewed and worse than cuckoo.
func TestElbowBetweenSkewedAndCuckoo(t *testing.T) {
	const ways, sets, n = 4, 1024, 3600 // ~88% of capacity
	drive := func(d Directory) uint64 {
		r := rng.New(4242)
		for i := 0; i < n; i++ {
			d.Read(r.Uint64(), 0)
		}
		return d.Stats().ForcedEvictions
	}
	sk := drive(NewSkewed(ways, sets, 4))
	el := drive(NewElbow(ways, sets, 4))
	ck := drive(NewCuckoo(core.DirConfig{
		Table:     core.Config{Ways: ways, SetsPerWay: sets},
		NumCaches: 4,
	}))
	t.Logf("forced at 88%% fill: skewed=%d elbow=%d cuckoo=%d", sk, el, ck)
	if !(sk > el) {
		t.Errorf("skewed (%d) should evict more than elbow (%d)", sk, el)
	}
	if !(el > ck) {
		t.Errorf("elbow (%d) should evict more than cuckoo (%d)", el, ck)
	}
}

func TestElbowResetStats(t *testing.T) {
	d := NewElbow(2, 16, 4)
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		d.Read(r.Uint64(), 0)
	}
	d.ResetStats()
	if d.Stats().Events.Total() != 0 || d.Stats().Attempts.Bucket(2) != 0 {
		t.Fatal("stats not reset")
	}
}

// histSum returns the sum of the samples h recorded.
func histSum(h *stats.Histogram) uint64 {
	var n uint64
	for v := 0; v <= h.Max(); v++ {
		n += uint64(v) * h.Bucket(v)
	}
	return n
}

// TestElbowAttemptsMatchHistogram checks that an insertion that displaced
// an entry reports its two writes in Op.Attempts, as the attempt
// histogram records them: on one slice, and through a sharded elbow's
// ShardCounters.Attempts.
func TestElbowAttemptsMatchHistogram(t *testing.T) {
	d := NewElbow(2, 16, 4)
	r := rng.New(1)
	var sum uint64
	for i := 0; i < 40; i++ {
		sum += uint64(d.Read(r.Uint64(), 0).Attempts)
	}
	h := d.Stats().Attempts
	if h.Bucket(2) == 0 {
		t.Fatal("no displacements: the fill does not exercise the two-write insertion")
	}
	if got := histSum(h); sum != got {
		t.Errorf("Op.Attempts sum %d, histogram sum %d (%d displacements)", sum, got, h.Bucket(2))
	}

	sd, err := BuildNamed("sharded-2(elbow-4x64)", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 480; i++ { // 94% of the 512 entries
		sd.Read(r.Uint64(), i%4)
	}
	h = sd.Stats().Attempts
	if h.Bucket(2) == 0 {
		t.Fatal("no displacements in the sharded fill")
	}
	if got, want := sd.(*ShardedDirectory).Counters().Attempts, histSum(h); got != want {
		t.Errorf("ShardCounters.Attempts %d, histogram sum %d (%d displacements)", got, want, h.Bucket(2))
	}
}

func TestElbowValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewElbow(1, 16, 4) },
		func() { NewElbow(2, 15, 4) },
		func() { NewElbow(2, 16, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
