// Package hashfn provides the per-way index hash families used by the
// Cuckoo and skewed-associative directory organizations.
//
// The paper evaluates two families (§5.5):
//
//   - the skewing functions of Seznec and Bodin, which cost "only several
//     levels of logic" in hardware and are the functions the final Cuckoo
//     directory design uses, and
//   - strong (cryptographic-grade) hash functions, used to characterize the
//     fundamental d-ary cuckoo behaviour (§5.1, Figure 7) free of hash bias.
//
// Both are exposed behind the Family interface: a family maps (way, key) to
// a 64-bit hash; callers reduce the hash onto their set count. Families are
// stateless and safe for concurrent use.
//
// Probe paths do not call a Family per way. They resolve it once into an
// Indexer, which computes the same set indices bit for bit. For the
// skewing family the Indexer runs at the cost the paper quotes: up to
// four ways of up to 16-bit fields read a byte table shared by every
// indexer of their shape, eight loads and seven XORs for all ways at
// once, and wider shapes run a shift kernel whose rotation amounts are
// precomputed, so no index divides and each rotation is one shift.
// Indexer.Reindex gives a displaced key's next index from the set it
// occupied, without folding the key's upper fields again. Skew.Hash
// stays the straightforward reference those paths are tested against.
package hashfn

// Family is a parametric family of hash functions, one per way of a
// multi-way structure. Implementations must be deterministic: equal
// (way, key) pairs always produce equal hashes.
type Family interface {
	// Name identifies the family in experiment output.
	Name() string
	// Hash returns a 64-bit hash of key for the given way. Different ways
	// must behave as (approximately) independent functions.
	Hash(way int, key uint64) uint64
}

// Index reduces a family hash onto a power-of-two set count.
// setMask must be sets-1 with sets a power of two.
func Index(f Family, way int, key uint64, setMask uint64) uint64 {
	return f.Hash(way, key) & setMask
}

// Skew implements the skewed-associative hash family of Seznec and Bodin
// (PARLE '93), the family the paper's final design uses (§5.5).
//
// The functions operate on index-width bit fields of the block address:
// with n index bits, A1 is the low n bits, A2 the next n bits, and so on.
// Way i computes
//
//	f_i(A) = sigma^i(A1) XOR sigma^(3i)(A2')
//
// where sigma is a one-bit circular shift within the n-bit field (the
// "perfect shuffle") and A2' folds all remaining upper fields into A2 with
// distinct rotations. Because sigma^i is a bijection on the n-bit field,
// sequential addresses spread perfectly over the sets of every way, and
// conflicting address pairs differ across ways — the two properties skewed
// caches need. The whole function is a handful of XORs and fixed rotates —
// the "several levels of logic" hardware cost the paper cites — and is
// deliberately NOT avalanche-quality; §5.5's comparison against strong
// hashes depends on that.
//
// Bits must be set to the structure's index width (log2 of the set count);
// the zero value defaults to 16 bits.
type Skew struct {
	// Bits is the index width n. Hash output is meaningful in its low n
	// bits; callers mask with sets-1 where sets == 1<<Bits.
	Bits int
	// n and mask are the resolved width and field mask, precomputed by
	// NewSkew so Hash does not re-derive them per call. Skews built as
	// struct literals leave them zero and resolve lazily in Hash.
	n    int
	mask uint64
}

// NewSkew returns the skewing family for a structure with the given number
// of index bits (sets == 1<<indexBits).
func NewSkew(indexBits int) Skew {
	if indexBits <= 0 || indexBits > 32 {
		panic("hashfn: NewSkew index bits out of range")
	}
	n, mask := skewWidth(indexBits)
	return Skew{Bits: indexBits, n: n, mask: mask}
}

// skewWidth resolves a Bits field into the effective index width and
// field mask (zero-value Skews default to 16 bits).
func skewWidth(bits int) (n int, mask uint64) {
	n = bits
	if n <= 0 {
		n = 16
	}
	return n, uint64(1)<<uint(n) - 1
}

// Name implements Family.
func (Skew) Name() string { return "skew" }

// rotN rotates the low n bits of x left by k. x must already be confined
// to its low n bits and k reduced to [0, n) — callers hoist the reduction
// out of their loops (see Skew.Hash, Indexer).
func rotN(x uint64, k, n int, mask uint64) uint64 {
	if k == 0 {
		return x
	}
	return ((x << uint(k)) | (x >> uint(n-k))) & mask
}

// Hash implements Family.
func (s Skew) Hash(way int, key uint64) uint64 {
	n, mask := s.n, s.mask
	if n == 0 {
		n, mask = skewWidth(s.Bits)
	}
	a1 := key & mask
	a2 := skewFold(key, n, mask)
	return rotN(a1, way%n, n, mask) ^ rotN(a2, (3*way)%n, n, mask)
}

// skewFold returns A2': the second index field of key with every
// remaining upper field folded in under distinct rotations. It depends
// only on (key, n), not the way, so batch indexing computes it once for
// all ways (Indexer.IndexAll).
func skewFold(key uint64, n int, mask uint64) uint64 {
	a2 := (key >> uint(n)) & mask
	rest := key >> uint(2*n)
	for r := 1; rest != 0; r += 3 {
		a2 ^= rotN(rest&mask, r%n, n, mask)
		rest >>= uint(n)
	}
	return a2
}

// Strong is an avalanche-grade mixer family standing in for the paper's
// cryptographic hash functions. It applies the SplitMix64 finalizer with a
// per-way odd constant; every input bit affects every output bit with
// probability ~1/2, which is the property that matters for table indexing.
type Strong struct{}

// Name implements Family.
func (Strong) Name() string { return "strong" }

// golden is 2^64 / phi, the SplitMix64 increment; waySalt spreads ways.
const (
	golden  = 0x9e3779b97f4a7c15
	waySalt = 0xbf58476d1ce4e5b9
)

// Hash implements Family.
func (Strong) Hash(way int, key uint64) uint64 { return strongHash(way, key) }

// strongHash is the Strong mixer, shared with the devirtualized Indexer
// so both paths are bit-identical by construction.
func strongHash(way int, key uint64) uint64 {
	z := key + golden*uint64(way+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// XorFold is the degenerate family used by plain set-associative (Sparse)
// directories: every way uses the identity index (low-order bits), so all
// ways conflict together. Exposed so the Sparse and Skewed organizations
// can share the same probing code as the Cuckoo table.
type XorFold struct{}

// Name implements Family.
func (XorFold) Name() string { return "xorfold" }

// Hash implements Family.
func (XorFold) Hash(_ int, key uint64) uint64 { return key }

// compile-time interface checks
var (
	_ Family = Skew{}
	_ Family = Strong{}
	_ Family = XorFold{}
)
