package cuckoodir

// This file is the reproduction gate: each test asserts one headline
// claim from the paper's abstract/conclusions through the public API, at
// quick scale. `go test -run TestClaim` answers "does this repository
// still reproduce the paper?" in about a minute. EXPERIMENTS.md records
// the corresponding full-scale numbers.

import (
	"testing"

	"cuckoodir/internal/energy"
)

// TestClaimCuckooEliminatesInvalidations: "the Cuckoo directory
// eliminates invalidations" (abstract) — near-zero forced invalidations
// at the chosen sizes on a representative workload pair, where
// equal-or-larger Sparse directories conflict heavily.
func TestClaimCuckooEliminatesInvalidations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed claim")
	}
	for _, tc := range []struct {
		kind SystemKind
		wl   string
	}{
		{SharedL2, "oracle"},
		{PrivateL2, "apache"},
	} {
		prof, err := WorkloadByName(tc.wl)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultSystemConfig(tc.kind)
		warm, measure := 1_500_000, 600_000

		cuckoo := mustSystem(t, cfg, prof, 1, ChosenCuckooSize(tc.kind).Spec())
		cuckoo.Run(warm)
		cuckoo.ResetStats()
		cuckoo.Run(measure)
		ck := cuckoo.DirStats()
		if rate := ck.InvalidationRate(); rate > 0.0005 {
			t.Errorf("%v/%s: cuckoo invalidation rate %.5f, want ~0", tc.kind, tc.wl, rate)
		}

		sparse := mustSystem(t, cfg, prof, 1, cfg.SparseSpec(8, 2))
		sparse.Run(warm)
		sparse.ResetStats()
		sparse.Run(measure)
		sp := sparse.DirStats()
		if sp.InvalidationRate() < 100*ck.InvalidationRate()+0.01 {
			t.Errorf("%v/%s: Sparse 2x rate %.4f not far above cuckoo %.5f",
				tc.kind, tc.wl, sp.InvalidationRate(), ck.InvalidationRate())
		}
	}
}

// TestClaimAttemptsBounded: §5.1 — "successfully inserting all directory
// entries, on average, after only two attempts" at the chosen sizes.
func TestClaimAttemptsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed claim")
	}
	prof, err := WorkloadByName("ocean") // the worst case
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSystemConfig(PrivateL2)
	sys := mustSystem(t, cfg, prof, 1, ChosenCuckooSize(PrivateL2).Spec())
	sys.Run(3_000_000)
	sys.ResetStats()
	sys.Run(1_000_000)
	if mean := sys.DirStats().Attempts.Mean(); mean > 2.2 {
		t.Errorf("ocean Private-L2 attempts = %.2f, want ~<2 (paper Figure 10)", mean)
	}
}

// TestClaimEnergyAreaScaling asserts the abstract's efficiency ratios
// from the analytical model (quick: no simulation).
func TestClaimEnergyAreaScaling(t *testing.T) {
	p := energy.DefaultParams()
	mix := energy.PaperMix()
	est := func(org energy.Organization, sys energy.System) energy.Estimate {
		return org.Estimate(sys, p, mix)
	}
	cuckoo := energy.Cuckoo{Ways: 4, Factor: 1, Vector: energy.CoarseVector}

	// "up to four times more power-efficient than the Duplicate-tag
	// directory" at 16 cores (abstract's simulation claim; intro says up
	// to 16x) — require at least 4x on Shared-L2.
	s16 := energy.SharedL2System(16)
	if r := est(energy.DuplicateTag{}, s16).EnergyPerOp / est(cuckoo, s16).EnergyPerOp; r < 4 {
		t.Errorf("16-core DupTag/Cuckoo energy ratio = %.1f, want >= 4", r)
	}

	// "up to seven times more area-efficient than the Sparse directory
	// organization" — at 1024 cores vs Sparse 8x Coarse.
	s1024 := energy.SharedL2System(1024)
	sparse := energy.Sparse{Assoc: 8, Factor: 8, Vector: energy.CoarseVector}
	if r := est(sparse, s1024).AreaPerCore / est(cuckoo, s1024).AreaPerCore; r < 7 {
		t.Errorf("1024-core Sparse/Cuckoo area ratio = %.1f, want >= 7", r)
	}

	// "efficiently scaling to at least 1024 cores": Cuckoo per-core
	// energy and area grow by < 1.5x across the whole sweep.
	e16, e1024 := est(cuckoo, s16), est(cuckoo, s1024)
	if g := e1024.EnergyPerOp / e16.EnergyPerOp; g > 1.5 {
		t.Errorf("cuckoo energy grew %.2fx from 16 to 1024 cores", g)
	}
	if g := e1024.AreaPerCore / e16.AreaPerCore; g > 1.5 {
		t.Errorf("cuckoo area grew %.2fx from 16 to 1024 cores", g)
	}

	// "up to 80x energy-efficiency over the leading area-efficient
	// Tagless design" at 1024 cores — require a large multiple.
	if r := est(energy.Tagless{}, s1024).EnergyPerOp / est(cuckoo, s1024).EnergyPerOp; r < 20 {
		t.Errorf("1024-core Tagless/Cuckoo energy ratio = %.1f, want >> 1", r)
	}
}

// TestClaimInsertionOffCriticalPath: §4.2 — insertion latency has "no
// measurable impact on performance" (event-driven MESI).
func TestClaimInsertionOffCriticalPath(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed claim")
	}
	prof, err := WorkloadByName("oracle")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewProtocolSystem(DefaultProtocolConfig(), prof, 3, ChosenCuckooSize(PrivateL2).Spec())
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(150_000)
	sys.ResetStats()
	sys.Run(150_000)
	ds := sys.DirStats()
	waitPerReq := float64(ds.InsertWaitCycles) / float64(ds.Requests)
	if frac := waitPerReq / sys.AvgMissLatency(); frac > 0.01 {
		t.Errorf("insertion wait is %.3f%% of miss latency, want < 1%%", frac*100)
	}
}
