package hashfn

import (
	"fmt"
	"testing"
)

// testKeys yields a deterministic mixed key set: small sequential keys
// (exercising the skew fold's early exit), keys with high bits set
// (exercising the fold loop), and splitmix-scrambled keys.
func testKeys(n int) []uint64 {
	keys := make([]uint64, 0, 3*n)
	for i := 0; i < n; i++ {
		keys = append(keys, uint64(i))
		keys = append(keys, uint64(i)<<37|uint64(i))
		keys = append(keys, strongHash(0, uint64(i)*0x9e3779b97f4a7c15))
	}
	return keys
}

// TestIndexerBitIdentical is the property test of the indexer: for
// every family — the three built-ins (at several widths, including
// zero-value and literal Skews) plus an opaque wrapper forcing the
// interface fallback — the resolved Indexer produces bit-identical set
// indices to the Family interface path, via Index, IndexAll and
// Reindex, across way counts on both sides of MaxWays. The set masks
// reach 28 and 32 bits, where a Skew wider than 32 bits would overflow
// the single-shift kernel's doubled field, and where a skew narrower
// than the set mask still leaves Reindex its inversion.
func TestIndexerBitIdentical(t *testing.T) {
	families := []Family{
		NewSkew(1), NewSkew(5), NewSkew(12), NewSkew(16), NewSkew(28), NewSkew(32),
		Skew{}, Skew{Bits: 9}, Skew{Bits: 33}, Skew{Bits: 40},
		Strong{}, XorFold{}, Opaque(NewSkew(10)), Opaque(Strong{}),
	}
	keys := testKeys(200)
	for _, f := range families {
		for _, ways := range []int{1, 2, 3, 4, 8, 11} {
			for _, sets := range []uint64{2, 512, 1 << 16, 1 << 28, 1 << 32} {
				mask := sets - 1
				ix := NewIndexer(f, ways, mask)
				if got := ix.Family().Name(); got != f.Name() {
					t.Fatalf("Family().Name() = %q, want %q", got, f.Name())
				}
				if ix.Batched() != (ways <= MaxWays) {
					t.Fatalf("%s/%d ways: Batched() = %v", f.Name(), ways, ix.Batched())
				}
				var all [MaxWays]uint64
				want := make([]uint64, ways)
				for _, key := range keys {
					if ix.Batched() {
						ix.IndexAll(key, &all)
					}
					for w := range want {
						want[w] = Index(f, w, key, mask)
						if got := ix.Index(w, key); got != want[w] {
							t.Fatalf("%s ways=%d sets=%#x: Index(%d, %#x) = %#x, want %#x",
								f.Name(), ways, sets, w, key, got, want[w])
						}
						if ix.Batched() && all[w] != want[w] {
							t.Fatalf("%s ways=%d sets=%#x: IndexAll(%#x)[%d] = %#x, want %#x",
								f.Name(), ways, sets, key, w, all[w], want[w])
						}
					}
					for from := range want {
						for to := range want {
							if got := ix.Reindex(key, from, want[from], to); got != want[to] {
								t.Fatalf("%s ways=%d sets=%#x: Reindex(%#x, %d, %#x, %d) = %#x, want %#x",
									f.Name(), ways, sets, key, from, want[from], to, got, want[to])
							}
						}
					}
				}
			}
		}
	}
}

// TestIndexerHighWays checks the skew path beyond the precomputed
// rotation tables (ways > MaxWays computes rotations on the fly).
func TestIndexerHighWays(t *testing.T) {
	f := NewSkew(7)
	ix := NewIndexer(f, 16, 127)
	for way := MaxWays; way < 16; way++ {
		for _, key := range testKeys(50) {
			if got, want := ix.Index(way, key), Index(f, way, key, 127); got != want {
				t.Fatalf("way %d key %#x: %#x != %#x", way, key, got, want)
			}
		}
	}
}

// TestIndexerPanics pins the constructor's input validation.
func TestIndexerPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil family", func() { NewIndexer(nil, 4, 511) })
	mustPanic("zero ways", func() { NewIndexer(Strong{}, 0, 511) })
}

// TestSkewPrecompute verifies NewSkew's precomputed width/mask agree
// with the lazy zero-value resolution (the satellite fix: the fallback
// is resolved once, not re-derived per Hash).
func TestSkewPrecompute(t *testing.T) {
	for _, bits := range []int{1, 8, 16, 32} {
		s := NewSkew(bits)
		lit := Skew{Bits: bits}
		for _, key := range testKeys(100) {
			for w := 0; w < 6; w++ {
				if s.Hash(w, key) != lit.Hash(w, key) {
					t.Fatalf("bits=%d way=%d key=%#x: NewSkew and literal Skew disagree", bits, w, key)
				}
			}
		}
	}
	// The zero value still defaults to 16 bits.
	var zero Skew
	if zero.Hash(1, 42) != (Skew{Bits: 16}).Hash(1, 42) {
		t.Fatal("zero-value Skew does not match Bits:16")
	}
}

func ExampleIndexer() {
	ix := NewIndexer(NewSkew(9), 4, 511)
	var idx [MaxWays]uint64
	ix.IndexAll(0xdeadbeef, &idx)
	for w := 0; w < 4; w++ {
		fmt.Println(idx[w] == ix.Index(w, 0xdeadbeef))
	}
	// Output:
	// true
	// true
	// true
	// true
}

// FuzzIndexer checks the skewing kernel against the Family path on
// fuzzed geometry: index bits 1..40 (NewSkew up to 32, a literal Skew
// always or beyond 32), set-mask width 0..63, 2..11 ways, any key and
// way. Index, IndexAll and Reindex must all equal
// Index(family, ...). The seeds are the committed corpus in
// testdata/fuzz/FuzzIndexer.
func FuzzIndexer(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint8, literal bool, maskBits uint8, ways uint8, key uint64, way uint8) {
		n := 1 + int(bits)%40
		var fam Family = Skew{Bits: n}
		if !literal && n <= 32 {
			fam = NewSkew(n)
		}
		mask := uint64(1)<<(maskBits%64) - 1
		d := 2 + int(ways)%10
		from := int(way) % d
		ix := NewIndexer(fam, d, mask)

		want := make([]uint64, d)
		for w := range want {
			want[w] = Index(fam, w, key, mask)
			if got := ix.Index(w, key); got != want[w] {
				t.Fatalf("bits=%d mask=%#x ways=%d: Index(%d, %#x) = %#x, want %#x", n, mask, d, w, key, got, want[w])
			}
		}
		if ix.Batched() {
			var all [MaxWays]uint64
			ix.IndexAll(key, &all)
			for w := range want {
				if all[w] != want[w] {
					t.Fatalf("bits=%d mask=%#x ways=%d: IndexAll(%#x)[%d] = %#x, want %#x", n, mask, d, key, w, all[w], want[w])
				}
			}
		}
		for to := range want {
			if got := ix.Reindex(key, from, want[from], to); got != want[to] {
				t.Fatalf("bits=%d mask=%#x ways=%d: Reindex(%#x, %d, %#x, %d) = %#x, want %#x",
					n, mask, d, key, from, want[from], to, got, want[to])
			}
		}
	})
}
