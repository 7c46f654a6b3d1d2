package cmpsim

import (
	"math/bits"
	"strconv"

	"cuckoodir/internal/directory"
)

// CuckooSize is a Cuckoo directory slice geometry in the paper's
// "(ways) x (sets)" notation (Figure 9: "Cuckoo directory sizes are
// expressed as (number of ways) x (number of sets)").
type CuckooSize struct {
	Ways int
	Sets int
}

// Entries returns the slice capacity.
func (s CuckooSize) Entries() int { return s.Ways * s.Sets }

// Provisioning returns the provisioning factor relative to the 1x slice
// capacity of cfg (e.g. 2.0 for "2x").
func (s CuckooSize) Provisioning(cfg Config) float64 {
	return float64(s.Entries()) / float64(cfg.OneXSliceCapacity())
}

// String formats the geometry as the paper does, e.g. "4x512".
func (s CuckooSize) String() string {
	return strconv.Itoa(s.Ways) + "x" + strconv.Itoa(s.Sets)
}

// Spec returns the spec of a Cuckoo slice of this geometry with the
// paper's final design: the skewing hash family and 32 attempts.
func (s CuckooSize) Spec() directory.Spec {
	return directory.Spec{
		Org:      directory.OrgCuckoo,
		Geometry: directory.Geometry{Ways: s.Ways, Sets: s.Sets},
	}
}

// SharedL2Sizes returns Figure 9's Shared-L2 sweep, over-provisioned to
// under-provisioned: 4x1024 (2x), 3x1024 (1.5x), 4x512 (1x), 3x512 (3/4x),
// 4x256 (1/2x), 3x256 (3/8x).
func SharedL2Sizes() []CuckooSize {
	return []CuckooSize{
		{4, 1024}, {3, 1024}, {4, 512}, {3, 512}, {4, 256}, {3, 256},
	}
}

// PrivateL2Sizes returns Figure 9's Private-L2 sweep: 4x8192 (2x),
// 3x8192 (1.5x), 8x2048 (1x), 3x4096 (3/4x), 8x1024 (1/2x), 3x2048 (3/8x).
func PrivateL2Sizes() []CuckooSize {
	return []CuckooSize{
		{4, 8192}, {3, 8192}, {8, 2048}, {3, 4096}, {8, 1024}, {3, 2048},
	}
}

// ChosenCuckooSize returns the geometry §5.2/§5.3 select for each
// configuration: 4x512 (1x) for Shared-L2, 3x8192 (1.5x) for Private-L2.
func ChosenCuckooSize(kind Kind) CuckooSize {
	if kind == SharedL2 {
		return CuckooSize{4, 512}
	}
	return CuckooSize{3, 8192}
}

// SparseSpec returns the spec of a classic Sparse slice with the given
// associativity and provisioning factor relative to c's 1x capacity
// (Figure 12's "Sparse 2x" is assoc 8, factor 2).
func (c Config) SparseSpec(assoc int, factor float64) directory.Spec {
	return directory.Spec{
		Org:      directory.OrgSparse,
		Geometry: directory.Geometry{Ways: assoc, Sets: c.provisionedSets(assoc, factor)},
	}
}

// SkewedSpec returns the spec of a skewed-associative slice (Figure 12's
// "Skewed 2x" is 4-way, factor 2).
func (c Config) SkewedSpec(ways int, factor float64) directory.Spec {
	return directory.Spec{
		Org:      directory.OrgSkewed,
		Geometry: directory.Geometry{Ways: ways, Sets: c.provisionedSets(ways, factor)},
	}
}

// provisionedSets returns the power-of-two set count giving
// factor * OneXSliceCapacity total entries at the given associativity,
// or 0, which Spec.Validate rejects, for a non-positive associativity.
func (c Config) provisionedSets(assoc int, factor float64) int {
	if assoc <= 0 {
		return 0
	}
	entries := factor * float64(c.OneXSliceCapacity())
	sets := int(entries) / assoc
	if sets <= 0 {
		sets = 1
	}
	// Round to the nearest power of two (exact for the paper's configs).
	return 1 << uint(bits.Len(uint(sets-1)))
}

// IdealSpec returns the spec of an unbounded exact slice whose occupancy
// is reported against c's 1x capacity (used for Figure 8).
func (c Config) IdealSpec() directory.Spec {
	return directory.Spec{
		Org:      directory.OrgIdeal,
		Capacity: c.OneXSliceCapacity(),
	}
}
