package directory

import (
	"fmt"
	"strings"

	"cuckoodir/internal/core"
	"cuckoodir/internal/hashfn"
	"cuckoodir/internal/sharer"
)

// Org names a directory organization. Every organization the paper
// evaluates (§3, §5.4) is addressable by one of these constants, which
// double as the organization prefix of registry names ("cuckoo-4x512").
type Org string

// The organizations.
const (
	// OrgCuckoo is the paper's Cuckoo directory (§4).
	OrgCuckoo Org = "cuckoo"
	// OrgSparse is the classic set-associative Sparse directory (Gupta
	// et al.).
	OrgSparse Org = "sparse"
	// OrgSkewed is the skewed-associative directory (Seznec).
	OrgSkewed Org = "skewed"
	// OrgElbow is the Elbow-cache directory (Spjuth et al.): skewed with
	// at most one displacement per insertion.
	OrgElbow Org = "elbow"
	// OrgDuplicateTag is the Duplicate-Tag directory (Piranha).
	OrgDuplicateTag Org = "dup-tag"
	// OrgTagless is the Tagless Bloom-filter grid (Zebchuk et al.).
	OrgTagless Org = "tagless"
	// OrgInCache is the inclusive in-cache directory.
	OrgInCache Org = "in-cache"
	// OrgIdeal is the unbounded exact reference.
	OrgIdeal Org = "ideal"
)

// Orgs returns every organization, in paper order.
func Orgs() []Org {
	return []Org{
		OrgCuckoo, OrgSparse, OrgSkewed, OrgElbow,
		OrgDuplicateTag, OrgTagless, OrgInCache, OrgIdeal,
	}
}

// Geometry is a "(ways) x (sets)" shape, the paper's sizing notation.
// Its meaning per organization:
//
//   - cuckoo: Ways is d, Sets the per-way set count.
//   - sparse/skewed/elbow: associativity x set count.
//   - dup-tag: Ways is the mirrored caches' associativity, Sets their
//     per-slice set count.
//   - tagless: Sets is the grid row count (Ways is unused).
//   - ideal/in-cache: unused (capacity comes from Spec.Capacity).
type Geometry struct {
	Ways int
	Sets int
}

// Entries returns Ways*Sets.
func (g Geometry) Entries() int { return g.Ways * g.Sets }

// String formats the geometry as the paper does, e.g. "4x512".
func (g Geometry) String() string { return fmt.Sprintf("%dx%d", g.Ways, g.Sets) }

// CuckooParams are the Cuckoo-specific knobs of a Spec.
type CuckooParams struct {
	// MaxAttempts bounds the displacement chain (0 = the paper's default
	// of 32, §5.2).
	MaxAttempts int
	// Hash overrides the per-way hash family (nil = the Seznec-Bodin
	// skewing family of the paper's final design).
	Hash hashfn.Family
	// StrongHash selects avalanche-grade hashing (§5.5). Mutually
	// exclusive with Hash.
	StrongHash bool
	// BucketSize > 1 enables the Panigrahy bucketized ablation.
	BucketSize int
	// StashSize > 0 adds a victim stash (Kirsch et al.).
	StashSize int
}

// TaglessParams are the Tagless-specific knobs of a Spec.
type TaglessParams struct {
	// BucketBits is the width of each Bloom filter bucket (power of two).
	BucketBits int
	// Hashes is the number of probe bits per lookup (k), 1..8.
	Hashes int
}

// ShardSpec wraps a Spec's organization in a concurrency-safe
// ShardedDirectory. The rest of the spec describes ONE shard, so total
// capacity is Count x the single-slice capacity.
type ShardSpec struct {
	// Count is the shard count: 0 leaves the spec unsharded (a bare,
	// non-concurrency-safe slice); > 0 must be a power of two and makes
	// Build return a *ShardedDirectory.
	Count int
	// Home selects the shard-homing function (default HomeMix).
	Home Home
	// Resize, when non-zero, enables automatic per-shard growth (the
	// online-resize policy of resize.go; registry form "^grow=0.85x2").
	Resize ResizePolicy
}

// Spec declaratively describes one directory slice: which organization,
// how many tracked caches, and its geometry and per-organization
// parameters. It replaces the positional New* constructors as the single
// construction path — build one with Build, by registry name with
// BuildNamed, or shard it with BuildSharded.
type Spec struct {
	// Org selects the organization.
	Org Org
	// NumCaches is the number of tracked private caches (1..64). Registry
	// specs may leave it 0 and bind it at BuildNamed time.
	NumCaches int
	// Geometry sizes the organization (see Geometry for per-Org meaning).
	Geometry Geometry
	// Cuckoo holds OrgCuckoo parameters.
	Cuckoo CuckooParams
	// Tagless holds OrgTagless parameters.
	Tagless TaglessParams
	// Format, when set (Format.New != nil), selects a compressed
	// sharer-set representation. Only OrgCuckoo supports formats (§6).
	Format sharer.Format
	// Shard, when Shard.Count > 0, wraps the organization in a
	// concurrency-safe ShardedDirectory of Count copies (registry form
	// "sharded-8(cuckoo-4x512)").
	Shard ShardSpec
	// Capacity is the entry-slot capacity for OrgInCache (the slice's L2
	// frame count, required) and the nominal occupancy-reporting capacity
	// for OrgIdeal (0 to disable).
	Capacity int
}

// WithCaches returns a copy of the spec bound to n tracked caches.
func (s Spec) WithCaches(n int) Spec {
	s.NumCaches = n
	return s
}

// String renders the spec in registry-name form ("cuckoo-4x512",
// "tagless-512x32x2", "ideal", "sharded-8(cuckoo-4x512)"); ParseSpecName
// inverts it for specs with default parameters. A sharer format is
// appended for display ("+coarse").
func (s Spec) String() string {
	if s.Shard.Count > 0 {
		inner := s
		inner.Shard = ShardSpec{}
		name := shardedName(s.Shard.Count, s.Shard.Home, inner.String())
		if pol := s.Shard.Resize; pol != (ResizePolicy{}) {
			// Insert the policy suffix before "(inner)":
			// "sharded-8^grow=0.85x4(cuckoo-4x512)". The default factor
			// and run are omitted, so the form ParseSpecName produces
			// round-trips.
			suffix := fmt.Sprintf("^grow=%g", pol.MaxLoad)
			if pol.Factor != 0 && pol.Factor != DefaultGrowthFactor {
				suffix += fmt.Sprintf("x%d", pol.Factor)
			}
			if open := strings.IndexByte(name, '('); open >= 0 {
				name = name[:open] + suffix + name[open:]
			}
		}
		return name
	}
	var name string
	switch s.Org {
	case OrgCuckoo, OrgSparse, OrgSkewed, OrgElbow, OrgDuplicateTag:
		name = fmt.Sprintf("%s-%s", s.Org, s.Geometry)
	case OrgTagless:
		name = fmt.Sprintf("%s-%dx%dx%d", s.Org, s.Geometry.Sets, s.Tagless.BucketBits, s.Tagless.Hashes)
	case OrgInCache:
		name = fmt.Sprintf("%s-%d", s.Org, s.Capacity)
	case OrgIdeal:
		if s.Capacity == 0 {
			name = string(s.Org)
		} else {
			name = fmt.Sprintf("%s-%d", s.Org, s.Capacity)
		}
	default:
		name = string(s.Org)
	}
	if s.Format.New != nil {
		name += "+" + s.Format.Name
	}
	return name
}

// Validate reports whether the spec describes a buildable directory; it
// enforces the same constraints the underlying constructors panic on, so
// a validated spec builds without panicking.
func (s Spec) Validate() error { return s.validate(false) }

// validate implements Validate; allowUnboundCaches admits NumCaches == 0
// (registry specs bind the cache count at build time).
func (s Spec) validate(allowUnboundCaches bool) error {
	if s.NumCaches < 0 || s.NumCaches > 64 || (s.NumCaches == 0 && !allowUnboundCaches) {
		return fmt.Errorf("directory: spec %s: NumCaches = %d, need 1..64", s.Org, s.NumCaches)
	}
	if s.Format.New != nil && s.Org != OrgCuckoo {
		return fmt.Errorf("directory: spec %s: sharer format %q is only supported by the cuckoo organization", s.Org, s.Format.Name)
	}
	if c := s.Shard.Count; c < 0 || c&(c-1) != 0 || c > maxShards {
		return fmt.Errorf("directory: spec %s: Shard.Count = %d, need a power of two <= %d (or 0 for an unsharded slice)",
			s.Org, c, maxShards)
	}
	if s.Shard.Home > HomeInterleave {
		return fmt.Errorf("directory: spec %s: unknown Shard.Home %d", s.Org, s.Shard.Home)
	}
	if s.Shard.Resize != (ResizePolicy{}) {
		if s.Shard.Count == 0 {
			return fmt.Errorf("directory: spec %s: Shard.Resize set on an unsharded spec (online resize is a ShardedDirectory feature)", s.Org)
		}
		if err := s.Shard.Resize.validate(); err != nil {
			return err
		}
	}
	switch s.Org {
	case OrgCuckoo:
		if w := s.Geometry.Ways; w < 2 || w > hashfn.MaxWays {
			return fmt.Errorf("directory: spec cuckoo: Ways = %d, need 2..%d", w, hashfn.MaxWays)
		}
		// The skew-family bound applies only when the default skewing
		// family is used; an explicit Hash (or StrongHash) indexes any
		// power-of-two set count.
		if s.hashFamily() == nil {
			if err := checkSkewedSets(s.Org, s.Geometry.Sets); err != nil {
				return err
			}
		} else if err := checkSets(s.Org, s.Geometry.Sets); err != nil {
			return err
		}
		c := s.Cuckoo
		if c.MaxAttempts < 0 || c.BucketSize < 0 || c.StashSize < 0 {
			return fmt.Errorf("directory: spec cuckoo: negative Cuckoo parameter (MaxAttempts %d, BucketSize %d, StashSize %d)",
				c.MaxAttempts, c.BucketSize, c.StashSize)
		}
		if err := checkEntryCount(s.Org, s.Geometry.Ways, s.Geometry.Sets, c.BucketSize); err != nil {
			return err
		}
		if c.StrongHash && c.Hash != nil {
			return fmt.Errorf("directory: spec cuckoo: StrongHash and Hash are mutually exclusive")
		}
	case OrgSparse:
		if s.Geometry.Ways < 1 {
			return fmt.Errorf("directory: spec sparse: Ways = %d, need >= 1", s.Geometry.Ways)
		}
		if err := checkSets(s.Org, s.Geometry.Sets); err != nil {
			return err
		}
		if err := checkEntryCount(s.Org, s.Geometry.Ways, s.Geometry.Sets); err != nil {
			return err
		}
	case OrgSkewed, OrgElbow:
		if s.Geometry.Ways < 2 {
			return fmt.Errorf("directory: spec %s: Ways = %d, need >= 2", s.Org, s.Geometry.Ways)
		}
		if err := checkSkewedSets(s.Org, s.Geometry.Sets); err != nil {
			return err
		}
		if err := checkEntryCount(s.Org, s.Geometry.Ways, s.Geometry.Sets); err != nil {
			return err
		}
	case OrgDuplicateTag:
		if s.Geometry.Ways < 1 {
			return fmt.Errorf("directory: spec dup-tag: Ways (cache associativity) = %d, need >= 1", s.Geometry.Ways)
		}
		if err := checkSets(s.Org, s.Geometry.Sets); err != nil {
			return err
		}
		if err := checkEntryCount(s.Org, s.Geometry.Ways, s.Geometry.Sets); err != nil {
			return err
		}
	case OrgTagless:
		if err := checkSets(s.Org, s.Geometry.Sets); err != nil {
			return err
		}
		if b := s.Tagless.BucketBits; b <= 0 || b&(b-1) != 0 {
			return fmt.Errorf("directory: spec tagless: BucketBits = %d, need a power of two", b)
		}
		if k := s.Tagless.Hashes; k <= 0 || k > hashfn.MaxWays {
			return fmt.Errorf("directory: spec tagless: Hashes = %d, need 1..%d", k, hashfn.MaxWays)
		}
		if err := checkEntryCount(s.Org, s.Geometry.Sets, s.Tagless.BucketBits); err != nil {
			return err
		}
	case OrgInCache:
		if s.Capacity <= 0 {
			return fmt.Errorf("directory: spec in-cache: Capacity = %d, need > 0 (the slice's L2 frame count)", s.Capacity)
		}
	case OrgIdeal:
		if s.Capacity < 0 {
			return fmt.Errorf("directory: spec ideal: Capacity = %d, need >= 0", s.Capacity)
		}
	default:
		return fmt.Errorf("directory: unknown organization %q", s.Org)
	}
	return nil
}

// ValidateFor is Validate for slices that track private caches of
// cacheSets x cacheAssoc frames: it also checks that they cannot
// overflow, a bound Validate cannot check without the caches. Each set
// of a Duplicate-Tag slice holds at most Ways blocks of one cache, and
// each Tagless filter counts its blocks' probe bits in 8-bit counters;
// both take the blocks of every cache set that maps onto one of their
// sets.
func (s Spec) ValidateFor(cacheSets, cacheAssoc int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	perSet := cacheAssoc
	if s.Geometry.Sets > 0 && cacheSets > s.Geometry.Sets {
		perSet *= cacheSets / s.Geometry.Sets
	}
	switch {
	case s.Org == OrgDuplicateTag && s.Geometry.Ways < perSet:
		return fmt.Errorf("directory: spec %s: up to %d blocks of a %dx%d (sets x ways) cache share a set, more than its %d ways",
			s, perSet, cacheSets, cacheAssoc, s.Geometry.Ways)
	case s.Org == OrgTagless && s.Tagless.Hashes*perSet > 0xff:
		return fmt.Errorf("directory: spec %s: up to %d blocks of a %dx%d (sets x ways) cache share a filter, and their %d probe bits each overflow its 8-bit counters",
			s, perSet, cacheSets, cacheAssoc, s.Tagless.Hashes)
	}
	return nil
}

// maxEntries bounds a spec's total entry-slot count: far beyond any
// plausible configuration, and low enough that the constructors' slot
// arithmetic (Ways*Sets*BucketSize, grid rows x filter bits) can never
// overflow int.
const maxEntries = 1 << 32

// maxShards bounds ShardSpec.Count — generous next to any machine's
// parallelism, and small enough that Count x maxEntries cannot overflow.
const maxShards = 1 << 16

// checkSets enforces the shared power-of-two set-count constraint.
func checkSets(org Org, sets int) error {
	if sets <= 0 || sets&(sets-1) != 0 || uint64(sets) > maxEntries {
		return fmt.Errorf("directory: spec %s: Sets = %d, need a positive power of two <= 2^32", org, sets)
	}
	return nil
}

// checkSkewedSets is checkSets for the skew-hashed organizations
// (cuckoo, skewed, elbow), whose hash family needs 1..32 index bits —
// a single set gives the skewing functions nothing to permute.
func checkSkewedSets(org Org, sets int) error {
	if err := checkSets(org, sets); err != nil {
		return err
	}
	if sets < 2 {
		return fmt.Errorf("directory: spec %s: Sets = %d, need >= 2 (the skewing hash family indexes at least 1 bit)", org, sets)
	}
	return nil
}

// checkEntryCount rejects geometries whose product of dimensions exceeds
// maxEntries. Zero dimensions are skipped (unset optional knobs, e.g.
// BucketSize). The running product stays <= maxEntries at every step, so
// the check itself cannot overflow.
func checkEntryCount(org Org, dims ...int) error {
	total := uint64(1)
	used := dims[:0:0]
	for _, d := range dims {
		if d == 0 {
			continue
		}
		used = append(used, d)
		if uint64(d) > maxEntries/total {
			return fmt.Errorf("directory: spec %s: geometry %v implies more than 2^32 entry slots", org, used)
		}
		total *= uint64(d)
	}
	return nil
}

// hashFamily resolves the Cuckoo hash family the spec selects.
func (s Spec) hashFamily() hashfn.Family {
	if s.Cuckoo.Hash != nil {
		return s.Cuckoo.Hash
	}
	if s.Cuckoo.StrongHash {
		return hashfn.Strong{}
	}
	return nil // core defaults to the skewing family sized for the geometry
}

// Build constructs the directory slice a spec describes. It is the single
// construction path the simulators, experiments and the CLI go through;
// the legacy New* constructors are thin wrappers over it.
func Build(s Spec) (Directory, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Shard.Count > 0 {
		return newSharded(s), nil
	}
	switch s.Org {
	case OrgCuckoo:
		cfg := core.Config{
			Ways:        s.Geometry.Ways,
			SetsPerWay:  s.Geometry.Sets,
			MaxAttempts: s.Cuckoo.MaxAttempts,
			BucketSize:  s.Cuckoo.BucketSize,
			StashSize:   s.Cuckoo.StashSize,
			Hash:        s.hashFamily(),
		}
		if s.Format.New != nil {
			return NewFormattedCuckoo(cfg, s.Format, s.NumCaches), nil
		}
		return NewCuckoo(core.DirConfig{Table: cfg, NumCaches: s.NumCaches}), nil
	case OrgSparse:
		return NewSparse(s.Geometry.Ways, s.Geometry.Sets, s.NumCaches), nil
	case OrgSkewed:
		return NewSkewed(s.Geometry.Ways, s.Geometry.Sets, s.NumCaches), nil
	case OrgElbow:
		return NewElbow(s.Geometry.Ways, s.Geometry.Sets, s.NumCaches), nil
	case OrgDuplicateTag:
		return NewDuplicateTag(s.NumCaches, s.Geometry.Sets, s.Geometry.Ways), nil
	case OrgTagless:
		return NewTagless(s.NumCaches, s.Geometry.Sets, s.Tagless.BucketBits, s.Tagless.Hashes), nil
	case OrgInCache:
		return NewInCache(s.NumCaches, s.Capacity), nil
	case OrgIdeal:
		return NewIdeal(s.NumCaches, s.Capacity), nil
	}
	panic("unreachable: Validate admits only known organizations")
}

// MustBuild is Build, panicking on invalid specs. Use it for statically
// known-good specs (tests, examples, experiment tables).
func MustBuild(s Spec) Directory {
	d, err := Build(s)
	if err != nil {
		panic(err)
	}
	return d
}
