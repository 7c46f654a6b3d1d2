package cuckoodir

import (
	"bytes"
	"testing"
)

// FuzzNewSystem drives the simulator constructors, NewSystem and
// NewProtocolSystem, through the public API. The fuzz bytes map onto
// small ranges that still include unknown, zero, negative and
// non-power-of-two values: the system kind, core count, tracked and
// protocol cache geometry, mesh sides, the workload, and a slice spec
// (an organization with its ways, sets and capacity, or one of the spec
// constructors). Every input must either return an error, or build a
// system that runs a few hundred accesses and passes CheckConsistency
// (after Drain for the protocol system). When traceCores maps above 0,
// the functional system runs a trace captured on that many cores
// through ReplayTrace instead, which must refuse a trace with more
// cores than the system. The functional system is built twice: from
// the fuzzed config and from the paper's configuration of the fuzzed
// kind (DefaultSystemConfig). The workload is also replayed on the
// fuzzed core count through ReplayWorkloadParallel into a small sharded
// cuckoo directory, which must return an error or apply every access.
// No input builds more than about 6 MiB, the tracked caches of the
// Private-L2 default. The committed corpus
// (testdata/fuzz/FuzzNewSystem) holds inputs that panicked before the
// simulators and the replay validated their input.
func FuzzNewSystem(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, cores, sets, assoc, protoSets, protoAssoc, meshW, meshH int8,
		wl, org uint8, ways, orgSets, capacity, traceCores int8) {
		cfg := SystemConfig{
			Kind:         SystemKind(int(kind) % 10),
			Cores:        int(cores) % 18,
			TrackedSets:  int(sets) % 70,
			TrackedAssoc: int(assoc) % 10,
		}
		prof := Workload{
			Name: "fuzz", CodeBlocks: 256, SharedBlocks: 512, PrivateBlocks: 1024,
			CodeFrac: 0.3, SharedFrac: 0.3, WriteFrac: 0.2,
			ZipfCode: 0.9, ZipfShared: 0.8, ZipfPrivate: 0.7,
		}
		switch wl % 3 {
		case 1: // em3d-like: streaming private data with remote reads
			prof.PrivateStreaming, prof.RemoteFrac = true, 0.15
		case 2:
			prof = Workload{}
		}
		w, s, c := int(ways)%10, int(orgSets)%70, int(capacity)
		var spec Spec
		switch n := int(org) % (len(Orgs()) + 5); {
		case n < len(Orgs()):
			spec = Spec{
				Org:      Orgs()[n],
				Geometry: Geometry{Ways: w, Sets: s},
				Tagless:  TaglessParams{BucketBits: c % 33, Hashes: w},
				Capacity: c,
			}
		case n == len(Orgs()):
			spec = CuckooSize{Ways: w, Sets: s}.Spec()
		case n == len(Orgs())+1:
			spec = cfg.SparseSpec(w, float64(c)/16)
		case n == len(Orgs())+2:
			spec = cfg.SkewedSpec(w, float64(c)/16)
		case n == len(Orgs())+3:
			spec = cfg.IdealSpec()
		default:
			spec = Spec{} // no organization
		}

		for _, cfg := range []SystemConfig{cfg, DefaultSystemConfig(cfg.Kind)} {
			if sys, err := NewSystem(cfg, prof, 1, spec); err != nil {
				if sys != nil {
					t.Fatalf("NewSystem returned a system with error %v", err)
				}
			} else {
				runFunctional(t, sys, prof, int(traceCores)%40)
				if err := sys.CheckConsistency(); err != nil {
					t.Fatalf("%+v with %v: %v", cfg, spec, err)
				}
			}
		}

		replayWorkload(t, prof, cfg.Cores)

		pcfg := DefaultProtocolConfig()
		pcfg.Cores = cfg.Cores
		pcfg.CacheSets, pcfg.CacheAssoc = int(protoSets)%70, int(protoAssoc)%10
		pcfg.Mesh.Width, pcfg.Mesh.Height = int(meshW)%10, int(meshH)%10
		psys, err := NewProtocolSystem(pcfg, prof, 1, spec)
		if err != nil {
			if psys != nil {
				t.Fatalf("NewProtocolSystem returned a system with error %v", err)
			}
			return
		}
		psys.Run(300)
		psys.Drain()
		if err := psys.CheckConsistency(); err != nil {
			t.Fatalf("%+v with %v: %v", pcfg, spec, err)
		}
	})
}

// runFunctional runs 300 accesses on sys: generated ones, or those of a
// trace captured on traceCores cores when that is above 0 and the
// profile can run there. A trace with more cores than sys must be
// refused before any record is injected.
func runFunctional(t *testing.T, sys *System, prof Workload, traceCores int) {
	t.Helper()
	var buf bytes.Buffer
	if traceCores <= 0 {
		sys.Run(300)
		return
	}
	if _, err := CaptureTrace(&buf, prof, traceCores, 1, 300); err != nil {
		sys.Run(300)
		return
	}
	rd, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ReplayTrace(rd, sys)
	switch {
	case traceCores > sys.Config().Cores && (err == nil || n != 0):
		t.Fatalf("replayed %d records of a %d-core trace into %d cores (err %v)", n, traceCores, sys.Config().Cores, err)
	case traceCores <= sys.Config().Cores && (err != nil || n != 300):
		t.Fatalf("ReplayTrace = %d, %v", n, err)
	}
}

// replayWorkload replays 300 accesses of prof on cores cores through
// ReplayWorkloadParallel into a 4-shard directory of cuckoo-4x64 slices
// tracking 16 caches. An invalid workload or core count must be an
// error; anything else must apply every access.
func replayWorkload(t *testing.T, prof Workload, cores int) {
	t.Helper()
	dir, err := BuildSharded(Spec{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 64}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayWorkloadParallel(dir, prof, cores, 1, 300, ReplayOptions{Workers: 1})
	if err == nil && (res.Accesses != 300 || res.Dropped != 0) {
		t.Fatalf("replayed %d accesses of 300 on %d cores, dropped %d", res.Accesses, cores, res.Dropped)
	}
}
