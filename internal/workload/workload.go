// Package workload provides synthetic stand-ins for the paper's Table 2
// workload suite: two OLTP systems (TPC-C on DB2 and Oracle), three TPC-H
// decision-support queries, two SPECweb99 web servers (Apache and Zeus)
// and two scientific kernels (em3d and ocean).
//
// The real workloads are not reproducible here (commercial databases,
// Solaris 8, FLEXUS checkpoints), so each is replaced by a generator that
// reproduces the block-level properties every directory metric in the
// paper actually depends on — see DESIGN.md §7:
//
//   - a shared read-only code footprint (instruction fetches hit the same
//     blocks in every core's I-cache, the main source of directory entry
//     sharing in the Shared-L2 configuration);
//   - a shared read-write data footprint with Zipf-skewed popularity
//     (buffer pools, session tables) whose writes generate invalidations;
//   - a per-core private footprint, either reuse-oriented (OLTP working
//     sets) or streaming (DSS scans, ocean's grid sweeps: "dominated by
//     large private footprints, resulting in predominantly unique blocks
//     across all private caches", §5.2);
//   - for em3d, remote reads into neighbouring cores' regions (Table 2:
//     "degree 2, span 5, 15% remote").
//
// The profile parameters were calibrated so the measured directory
// occupancy reproduces Figure 8's shape; EXPERIMENTS.md records the
// measured values.
package workload

import (
	"fmt"

	"cuckoodir/internal/rng"
)

// Block address regions. The generators emit 64-byte-block addresses; the
// region bases keep code, shared and per-core private footprints disjoint
// while leaving the low bits (set index and home-slice interleaving bits)
// dense.
const (
	CodeBase    = uint64(1) << 34
	SharedBase  = uint64(2) << 34
	PrivateBase = uint64(4) << 34
	// PrivateStride separates per-core private regions.
	PrivateStride = uint64(1) << 28
)

// Paging constants: the paper's system uses 8 KB pages (Table 1), i.e.
// 128 64-byte blocks per page.
const (
	// PageBlocks is the number of blocks per page.
	PageBlocks = 128
	pageShift  = 7 // log2(PageBlocks)
	// frameBits is the physical page-frame number width; physical block
	// addresses are frameBits+pageShift = 40 bits (a 46-bit byte address
	// space, within Table 1's 48-bit addressing).
	frameBits = 33
)

// Access is one memory reference at block granularity.
type Access struct {
	// Addr is the block address.
	Addr uint64
	// Write is true for stores. Never true for instruction fetches.
	Write bool
	// Code is true for instruction fetches (routed to the I-cache in the
	// Shared-L2 configuration).
	Code bool
}

// Profile describes one synthetic workload.
type Profile struct {
	// Name is the paper's workload name ("db2", "oracle", ...).
	Name string
	// Class is the suite grouping used in the paper's figures
	// ("OLTP", "DSS", "Web", "Sci").
	Class string
	// Table2 is the application description from Table 2.
	Table2 string

	// CodeBlocks is the shared read-only instruction footprint (blocks).
	CodeBlocks int
	// SharedBlocks is the shared read-write data footprint (blocks).
	SharedBlocks int
	// PrivateBlocks is the per-core private data footprint (blocks).
	PrivateBlocks int

	// CodeFrac is the fraction of accesses that are instruction fetches;
	// SharedFrac the fraction that reference shared data. The remainder
	// references private data.
	CodeFrac   float64
	SharedFrac float64
	// WriteFrac is the store fraction among data accesses.
	WriteFrac float64

	// ZipfCode/ZipfShared/ZipfPrivate set the popularity skew of each
	// region (exponent of the Zipf law; higher = more skewed).
	ZipfCode    float64
	ZipfShared  float64
	ZipfPrivate float64

	// PrivateStreaming selects sequential-scan behaviour for the private
	// region (DSS table scans, ocean grid sweeps) instead of Zipf reuse.
	PrivateStreaming bool
	// RemoteFrac is the fraction of private-region accesses that read a
	// neighbouring core's private region (em3d's remote graph edges).
	RemoteFrac float64
	// DisablePaging emits raw logical addresses instead of translating
	// them through the synthetic page table. Directory hash behaviour is
	// only realistic WITH paging (the paper's workloads run on physical
	// addresses scattered by the OS's 8 KB page allocation); disabling is
	// for tests that assert logical address ranges.
	DisablePaging bool
}

// String returns the workload name.
func (p Profile) String() string { return p.Name }

// Profiles returns the nine workloads in the paper's presentation order
// (Table 2 / Figure 8: OLTP, DSS, Web, Sci).
func Profiles() []Profile {
	return []Profile{
		{
			Name: "db2", Class: "OLTP",
			Table2:     "IBM DB2 v8 ESE, 100 warehouses (10 GB), 64 clients, 2 GB buffer pool",
			CodeBlocks: 3072, SharedBlocks: 8192, PrivateBlocks: 24576,
			CodeFrac: 0.30, SharedFrac: 0.26, WriteFrac: 0.20,
			ZipfCode: 0.9, ZipfShared: 0.85, ZipfPrivate: 0.75,
		},
		{
			Name: "oracle", Class: "OLTP",
			Table2:     "Oracle 10g Server, 100 warehouses (10 GB), 16 clients, 1.4 GB SGA",
			CodeBlocks: 4096, SharedBlocks: 10240, PrivateBlocks: 20480,
			CodeFrac: 0.28, SharedFrac: 0.30, WriteFrac: 0.25,
			ZipfCode: 0.9, ZipfShared: 0.85, ZipfPrivate: 0.75,
		},
		{
			Name: "qry2", Class: "DSS",
			Table2:     "TPC-H Q2 on IBM DB2 v8 ESE, 480 MB buffer pool, 1 GB database",
			CodeBlocks: 1536, SharedBlocks: 4096, PrivateBlocks: 65536,
			CodeFrac: 0.22, SharedFrac: 0.10, WriteFrac: 0.06,
			ZipfCode: 0.9, ZipfShared: 0.7, ZipfPrivate: 0.5,
			PrivateStreaming: true,
		},
		{
			Name: "qry16", Class: "DSS",
			Table2:     "TPC-H Q16 on IBM DB2 v8 ESE, 480 MB buffer pool, 1 GB database",
			CodeBlocks: 1536, SharedBlocks: 5120, PrivateBlocks: 49152,
			CodeFrac: 0.24, SharedFrac: 0.13, WriteFrac: 0.07,
			ZipfCode: 0.9, ZipfShared: 0.7, ZipfPrivate: 0.5,
			PrivateStreaming: true,
		},
		{
			Name: "qry17", Class: "DSS",
			Table2:     "TPC-H Q17 on IBM DB2 v8 ESE, 480 MB buffer pool, 1 GB database",
			CodeBlocks: 1536, SharedBlocks: 4608, PrivateBlocks: 57344,
			CodeFrac: 0.22, SharedFrac: 0.11, WriteFrac: 0.06,
			ZipfCode: 0.9, ZipfShared: 0.7, ZipfPrivate: 0.5,
			PrivateStreaming: true,
		},
		{
			Name: "apache", Class: "Web",
			Table2:     "Apache HTTP Server v2.0, SPECweb99, 16K connections, fastCGI, worker threading",
			CodeBlocks: 5120, SharedBlocks: 8192, PrivateBlocks: 16384,
			CodeFrac: 0.35, SharedFrac: 0.25, WriteFrac: 0.15,
			ZipfCode: 0.95, ZipfShared: 0.9, ZipfPrivate: 0.8,
		},
		{
			Name: "zeus", Class: "Web",
			Table2:     "Zeus Web Server v4.3, SPECweb99, 16K connections, fastCGI",
			CodeBlocks: 4608, SharedBlocks: 7168, PrivateBlocks: 15360,
			CodeFrac: 0.34, SharedFrac: 0.24, WriteFrac: 0.15,
			ZipfCode: 0.95, ZipfShared: 0.9, ZipfPrivate: 0.8,
		},
		{
			Name: "em3d", Class: "Sci",
			Table2:     "em3d, 768K nodes, degree 2, span 5, 15% remote",
			CodeBlocks: 640, SharedBlocks: 6144, PrivateBlocks: 49152,
			CodeFrac: 0.15, SharedFrac: 0.10, WriteFrac: 0.12,
			ZipfCode: 0.8, ZipfShared: 0.5, ZipfPrivate: 0.4,
			PrivateStreaming: true, RemoteFrac: 0.15,
		},
		{
			Name: "ocean", Class: "Sci",
			Table2:     "ocean, 1026x1026 grid, 9600s relaxations, 20K res., err 1e-7",
			CodeBlocks: 512, SharedBlocks: 1024, PrivateBlocks: 98304,
			CodeFrac: 0.10, SharedFrac: 0.03, WriteFrac: 0.20,
			ZipfCode: 0.8, ZipfShared: 0.5, ZipfPrivate: 0.3,
			PrivateStreaming: true,
		},
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Names returns the workload names in suite order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// Validate reports whether the profile can drive generators for
// numCores cores: every footprint and every Zipf exponent the profile
// draws from must be positive, and remote reads need a second core.
// Building or running a generator from a profile that fails it panics.
func (p Profile) Validate(numCores int) error {
	if p.CodeBlocks <= 0 || p.SharedBlocks <= 0 || p.PrivateBlocks <= 0 {
		return fmt.Errorf("workload: profile %q: footprints %d/%d/%d blocks (code/shared/private), need all positive",
			p.Name, p.CodeBlocks, p.SharedBlocks, p.PrivateBlocks)
	}
	if !(p.ZipfCode > 0) || !(p.ZipfShared > 0) || !(p.ZipfPrivate > 0 || p.PrivateStreaming) {
		return fmt.Errorf("workload: profile %q: Zipf exponents %v/%v/%v (code/shared/private), need positive",
			p.Name, p.ZipfCode, p.ZipfShared, p.ZipfPrivate)
	}
	if p.RemoteFrac > 0 && numCores < 2 {
		return fmt.Errorf("workload: profile %q: RemoteFrac %v needs at least 2 cores, have %d", p.Name, p.RemoteFrac, numCores)
	}
	return nil
}

// Generator produces one core's access stream for a profile. Generators
// for the same profile and different cores share the global footprints
// but have independent random streams; everything is deterministic in
// (profile, core, seed).
type Generator struct {
	p        Profile
	core     int
	numCores int
	r        *rng.Source
	codeZ    *rng.Zipf
	sharedZ  *rng.Zipf
	privZ    *rng.Zipf
	stream   uint64 // streaming scan pointer
	pageSeed uint64 // global (core-independent) page-table seed
}

// NewGenerator builds the access generator for one core.
func NewGenerator(p Profile, coreID, numCores int, seed uint64) *Generator {
	if coreID < 0 || coreID >= numCores {
		panic(fmt.Sprintf("workload: core %d out of range [0,%d)", coreID, numCores))
	}
	if p.CodeBlocks <= 0 || p.SharedBlocks <= 0 || p.PrivateBlocks <= 0 {
		panic("workload: profile footprints must be positive")
	}
	r := rng.New(seed ^ (uint64(coreID)+1)*0x9e3779b97f4a7c15)
	g := &Generator{
		p:        p,
		core:     coreID,
		numCores: numCores,
		r:        r,
		codeZ:    rng.NewZipf(r, p.CodeBlocks, p.ZipfCode),
		sharedZ:  rng.NewZipf(r, p.SharedBlocks, p.ZipfShared),
		pageSeed: seed, // shared across cores: one page table per system
	}
	if !p.PrivateStreaming {
		g.privZ = rng.NewZipf(r, p.PrivateBlocks, p.ZipfPrivate)
	}
	// Stagger scan start points so cores do not sweep in lockstep.
	g.stream = uint64(coreID) * uint64(p.PrivateBlocks) / uint64(numCores)
	return g
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// privateAddr returns the block address of index idx in core c's private
// region.
func privateAddr(c int, idx uint64) uint64 {
	return PrivateBase + uint64(c)*PrivateStride + idx
}

// translate maps a logical block address to a physical one through the
// synthetic page table: the page offset is preserved (spatial locality
// within 8 KB pages survives, as on real hardware) while the page frame
// number is a pseudo-random pure function of (logical page, system seed),
// modelling the OS's physical page allocation. Without this scatter, the
// perfectly regular synthetic regions defeat the linear Seznec-Bodin
// skewing functions in ways the paper's physically-addressed workloads
// never would.
func (g *Generator) translate(logical uint64) uint64 {
	if g.p.DisablePaging {
		return logical
	}
	page := logical >> pageShift
	off := logical & (PageBlocks - 1)
	z := page*0x9e3779b97f4a7c15 ^ g.pageSeed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	frame := z & (1<<frameBits - 1)
	return frame<<pageShift | off
}

// Next returns the next access of this core's stream.
func (g *Generator) Next() Access {
	u := g.r.Float64()
	switch {
	case u < g.p.CodeFrac:
		return Access{
			Addr: g.translate(CodeBase + uint64(g.codeZ.Next())),
			Code: true,
		}
	case u < g.p.CodeFrac+g.p.SharedFrac:
		return Access{
			Addr:  g.translate(SharedBase + uint64(g.sharedZ.Next())),
			Write: g.r.Bool(g.p.WriteFrac),
		}
	default:
		// Private region; occasionally a remote neighbour read (em3d).
		if g.p.RemoteFrac > 0 && g.r.Bool(g.p.RemoteFrac) {
			neighbour := (g.core + 1 + g.r.Intn(g.numCores-1)) % g.numCores
			var idx uint64
			if g.p.PrivateStreaming {
				idx = g.r.Uint64() % uint64(g.p.PrivateBlocks)
			} else {
				idx = uint64(g.privZ.Next())
			}
			return Access{Addr: g.translate(privateAddr(neighbour, idx))}
		}
		var idx uint64
		if g.p.PrivateStreaming {
			idx = g.stream % uint64(g.p.PrivateBlocks)
			g.stream++
		} else {
			idx = uint64(g.privZ.Next())
		}
		return Access{
			Addr:  g.translate(privateAddr(g.core, idx)),
			Write: g.r.Bool(g.p.WriteFrac),
		}
	}
}
