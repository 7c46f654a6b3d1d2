// The devirtualized set-index pipeline. A Family is the right interface
// for describing a hash family, but an interface call per way per probe
// is the wrong cost model for a structure the paper argues is cheap
// enough to sit on every directory access (§4.1, §5.5). An Indexer is
// resolved ONCE from a Family at table construction: the three built-in
// families are recognized and dispatched through a concrete switch with
// their masks and rotation constants precomputed, and unknown families
// keep working through the interface as a fallback. The batch form
// (IndexAll) additionally shares the per-key work — the skewing family's
// upper-field fold — across all ways, which the per-way interface
// cannot.
//
// The skewing kernel runs at the cost §5.5 quotes for hardware, a few
// levels of shifts and XORs. Every rotation amount, per way and per
// folded upper field, is reduced mod n at construction, so no index
// computes a divide. Each rotation is one right shift of the doubled
// field (see NewIndexer). Reindex goes further for a key being displaced:
// it recovers the folded field from the set the key occupies instead of
// folding the key again.

package hashfn

// MaxWays is the widest way batch IndexAll computes in one pass, and
// the widest cuckoo table core builds — the paper evaluates 2..8 ways
// (§5.2). Index serves any way count, so the set-associative
// organizations, whose ways may exceed MaxWays, fall back to per-way
// indexing there.
const MaxWays = 8

// ixKind discriminates the specialized index pipelines.
type ixKind uint8

const (
	ixFamily ixKind = iota // unknown family: interface dispatch
	ixSkew                 // skew, n <= 32: single-shift rotations
	ixStrong
	ixXorFold
)

// Indexer maps (way, key) to a set index exactly as Index(f, way, key,
// setMask) would, without the per-call interface dispatch and setup.
// Index serves one way, IndexAll every way, and Reindex moves a key that
// sits in one way on to another. Families it does not specialize, and a
// literal Skew wider than 32 bits, go through the interface. Resolve one
// with NewIndexer when the structure is built and keep it by value; the
// zero Indexer is not usable. Indexers are stateless after construction
// and safe for concurrent use.
type Indexer struct {
	kind ixKind
	ways int
	mask uint64 // set mask (sets-1), applied to every index
	// Skew precomputation: the resolved field width n, its mask, and out
	// = nmask & mask, the mask every skew index ends under.
	n     uint
	nmask uint64
	out   uint64
	// Rotations of the single-shift kernel (ixSkew), each stored as the
	// right-shift count n-k that rotates a doubled field left by k:
	// shA[w] is sigma^w and shB[w] sigma^(3w) for the batched ways,
	// shF[j] is sigma^(1+3j) for upper field j of the fold, and
	// shRe[from][to] is sigma^(3to-3from), the turn Reindex gives a
	// recovered A2'.
	shA, shB [MaxWays]uint8
	shF      [64]uint8
	shRe     [MaxWays][MaxWays]uint8
	// inv reports that a skew index keeps every bit of the field
	// (nmask & mask == nmask), so Reindex can invert it.
	inv bool
	fam Family // the source family (fallback dispatch, Name)
}

// NewIndexer resolves f into a fast index pipeline for a structure with
// the given way count and set mask (sets-1, sets a power of two).
//
// For the skewing family every rotation sigma^k of an n-bit field x is
// precomputed as the shift count s = n-k of
//
//	((x | x<<n) >> s) & nmask
//
// — the doubled field holds both halves of the rotation, so one shift
// replaces the shift, shift and OR of rotN. The doubled field needs 2n
// bits, so a literal Skew wider than 32 bits (NewSkew rejects one) keeps
// the interface fallback, whose Skew.Hash is exact at any width.
func NewIndexer(f Family, ways int, setMask uint64) Indexer {
	if f == nil {
		panic("hashfn: NewIndexer: nil family")
	}
	if ways < 1 {
		panic("hashfn: NewIndexer: ways must be >= 1")
	}
	ix := Indexer{kind: ixFamily, ways: ways, mask: setMask, fam: f}
	switch s := f.(type) {
	case Skew:
		n, nmask := s.n, s.mask
		if n == 0 {
			n, nmask = skewWidth(s.Bits)
		}
		if n > 32 {
			break
		}
		ix.kind = ixSkew
		ix.n, ix.nmask, ix.out = uint(n), nmask, nmask&setMask
		ix.inv = nmask&setMask == nmask
		for w := 0; w < MaxWays; w++ {
			ix.shA[w] = uint8(n - w%n)
			ix.shB[w] = uint8(n - (3*w)%n)
		}
		for j := range ix.shF {
			ix.shF[j] = uint8(n - (1+3*j)%n)
		}
		for from := 0; from < MaxWays; from++ {
			for to := 0; to < MaxWays; to++ {
				k := ((3*to)%n - (3*from)%n + n) % n
				ix.shRe[from][to] = uint8(n - k)
			}
		}
	case Strong:
		ix.kind = ixStrong
	case XorFold:
		ix.kind = ixXorFold
	}
	return ix
}

// Family returns the family the indexer was resolved from.
func (ix *Indexer) Family() Family { return ix.fam }

// Ways returns the way count the indexer was built for.
func (ix *Indexer) Ways() int { return ix.ways }

// Batched reports whether IndexAll covers every way in one call
// (ways <= MaxWays).
func (ix *Indexer) Batched() bool { return ix.ways <= MaxWays }

// fold returns skewFold(key, n, nmask), A2', without a divide: upper
// field j turns by the precomputed shF[j]. The fields are XORed
// unmasked and the junk above bit n is cleared once at the end. Only
// for ixSkew (n <= 32), whose doubled fields fit in 64 bits.
//
//cuckoo:hotpath
func (ix *Indexer) fold(key uint64) uint64 {
	n, nmask := ix.n&63, ix.nmask
	a2 := key >> n
	for j, rest := 0, a2>>n; rest != 0; j, rest = j+1, rest>>n {
		f := rest & nmask
		a2 ^= (f | f<<n) >> (ix.shF[j&63] & 63)
	}
	return a2 & nmask
}

// Index returns the set index of key in the given way — bit-identical
// to Index(Family(), way, key, setMask) for every way, including ways
// beyond MaxWays.
//
//cuckoo:hotpath
func (ix *Indexer) Index(way int, key uint64) uint64 {
	switch ix.kind {
	case ixSkew:
		n := ix.n & 63
		a1 := key & ix.nmask
		a2 := ix.fold(key)
		var sA, sB uint
		if way < MaxWays {
			sA, sB = uint(ix.shA[way]), uint(ix.shB[way])
		} else {
			sA, sB = n-uint(way)%n, n-uint(3*way)%n
		}
		return ((a1|a1<<n)>>(sA&63) ^ (a2|a2<<n)>>(sB&63)) & ix.out
	case ixStrong:
		return strongHash(way, key) & ix.mask
	case ixXorFold:
		return key & ix.mask
	default:
		//cuckoo:ignore unknown-family fallback: interface dispatch is the documented slow path
		return ix.fam.Hash(way, key) & ix.mask
	}
}

// Reindex returns key's set index in way to, given that key sits at
// set in way from: set must equal Index(from, key). The result equals
// Index(to, key). It is the displacement step of a cuckoo insertion,
// which moves a resident key on to its next way.
//
// A skew index is f_w(key) = sigma^w(A1) ^ sigma^(3w)(A2'), and A1 is
// the key's low field. When the set index keeps the whole field, the
// occupied set therefore gives back A2' (as sigma^(3from)(A2') = set ^
// sigma^from(A1)) and the key's upper fields need no fold. Every other
// case computes Index(to, key): a set mask narrower than the field, the
// other families, and ways beyond MaxWays.
//
//cuckoo:hotpath
func (ix *Indexer) Reindex(key uint64, from int, set uint64, to int) uint64 {
	if !ix.inv || uint(from) >= MaxWays || uint(to) >= MaxWays {
		return ix.Index(to, key)
	}
	n, nmask := ix.n&63, ix.nmask
	a1 := key & nmask
	d1 := a1 | a1<<n
	b := (set ^ d1>>(ix.shA[from]&63)) & nmask // sigma^(3from)(A2')
	return (d1>>(ix.shA[to]&63) ^ (b|b<<n)>>(ix.shRe[from][to]&63)) & nmask
}

// Opaque wraps a family so NewIndexer cannot recognize its concrete
// type, forcing the interface-dispatch fallback. It is the reference
// path the differential tests and the pre-/post-devirtualization
// benchmarks compare the specialized pipelines against.
func Opaque(f Family) Family { return opaque{f} }

type opaque struct{ f Family }

// Name implements Family.
func (o opaque) Name() string { return o.f.Name() }

// Hash implements Family.
func (o opaque) Hash(way int, key uint64) uint64 { return o.f.Hash(way, key) }

// IndexAll computes key's set index in every way in one pass, writing
// way w's index to dst[w]. Per-key work that the per-way interface
// repeats — the skewing family's field extraction, upper-field fold and
// field doubling — happens once. Only valid when Batched() (ways <=
// MaxWays).
//
//cuckoo:hotpath
func (ix *Indexer) IndexAll(key uint64, dst *[MaxWays]uint64) {
	switch ix.kind {
	case ixSkew:
		n := ix.n & 63
		a1 := key & ix.nmask
		a2 := ix.fold(key)
		d1, d2 := a1|a1<<n, a2|a2<<n
		for w := 0; w < ix.ways; w++ {
			dst[w] = (d1>>(ix.shA[w]&63) ^ d2>>(ix.shB[w]&63)) & ix.out
		}
	case ixStrong:
		for w := 0; w < ix.ways; w++ {
			dst[w] = strongHash(w, key) & ix.mask
		}
	case ixXorFold:
		v := key & ix.mask
		for w := 0; w < ix.ways; w++ {
			dst[w] = v
		}
	default:
		for w := 0; w < ix.ways; w++ {
			//cuckoo:ignore unknown-family fallback: interface dispatch is the documented slow path
			dst[w] = ix.fam.Hash(w, key) & ix.mask
		}
	}
}
