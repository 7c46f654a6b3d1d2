package workload

import (
	"strings"
	"testing"
)

func TestProfilesComplete(t *testing.T) {
	ps := Profiles()
	if len(ps) != 9 {
		t.Fatalf("profiles = %d, want 9 (Table 2)", len(ps))
	}
	wantOrder := []string{"db2", "oracle", "qry2", "qry16", "qry17", "apache", "zeus", "em3d", "ocean"}
	for i, p := range ps {
		if p.Name != wantOrder[i] {
			t.Errorf("profile %d = %q, want %q", i, p.Name, wantOrder[i])
		}
		if p.Class == "" || p.Table2 == "" {
			t.Errorf("%s: missing class/description", p.Name)
		}
		if p.CodeFrac+p.SharedFrac >= 1 {
			t.Errorf("%s: access fractions exceed 1", p.Name)
		}
		if p.CodeBlocks <= 0 || p.SharedBlocks <= 0 || p.PrivateBlocks <= 0 {
			t.Errorf("%s: non-positive footprint", p.Name)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("ocean")
	if err != nil || p.Name != "ocean" {
		t.Fatalf("ByName(ocean) = %v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName of unknown workload succeeded")
	}
	if len(Names()) != 9 {
		t.Fatal("Names() incomplete")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ByName("db2")
	a := NewGenerator(p, 3, 16, 42)
	b := NewGenerator(p, 3, 16, 42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at access %d", i)
		}
	}
	c := NewGenerator(p, 4, 16, 42) // different core -> different stream
	a = NewGenerator(p, 3, 16, 42)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same > 100 {
		t.Errorf("different cores produced %d/1000 identical accesses", same)
	}
}

func TestRegionsDisjoint(t *testing.T) {
	p, _ := ByName("oracle")
	p.DisablePaging = true
	g := NewGenerator(p, 0, 16, 7)
	for i := 0; i < 20000; i++ {
		a := g.Next()
		switch {
		case a.Code:
			if a.Addr < CodeBase || a.Addr >= CodeBase+uint64(p.CodeBlocks) {
				t.Fatalf("code access outside region: %#x", a.Addr)
			}
			if a.Write {
				t.Fatal("write to code region")
			}
		case a.Addr >= SharedBase && a.Addr < SharedBase+uint64(p.SharedBlocks):
			// shared data — fine
		case a.Addr >= PrivateBase:
			// private data — fine
		default:
			t.Fatalf("access to unknown region: %#x", a.Addr)
		}
	}
}

func TestAccessMixFractions(t *testing.T) {
	p, _ := ByName("apache")
	p.DisablePaging = true
	g := NewGenerator(p, 2, 16, 9)
	const n = 100000
	var code, shared, private, writes, data int
	for i := 0; i < n; i++ {
		a := g.Next()
		switch {
		case a.Code:
			code++
		case a.Addr >= SharedBase && a.Addr < PrivateBase:
			shared++
		default:
			private++
		}
		if !a.Code {
			data++
			if a.Write {
				writes++
			}
		}
	}
	approx := func(got int, want float64, name string) {
		frac := float64(got) / n
		if frac < want-0.02 || frac > want+0.02 {
			t.Errorf("%s fraction = %.3f, want ~%.3f", name, frac, want)
		}
	}
	approx(code, p.CodeFrac, "code")
	approx(shared, p.SharedFrac, "shared")
	approx(private, 1-p.CodeFrac-p.SharedFrac, "private")
	// Writes: WriteFrac of data accesses (remote reads dilute slightly for
	// em3d only; apache has no remote traffic).
	wfrac := float64(writes) / float64(data)
	if wfrac < p.WriteFrac-0.03 || wfrac > p.WriteFrac+0.03 {
		t.Errorf("write fraction = %.3f, want ~%.3f", wfrac, p.WriteFrac)
	}
}

func TestPrivateIsolation(t *testing.T) {
	// Without remote traffic, core i's private accesses never touch core
	// j's region.
	p, _ := ByName("qry2")
	p.DisablePaging = true
	for _, coreID := range []int{0, 5, 15} {
		g := NewGenerator(p, coreID, 16, 3)
		lo := PrivateBase + uint64(coreID)*PrivateStride
		hi := lo + PrivateStride
		for i := 0; i < 10000; i++ {
			a := g.Next()
			if a.Addr >= PrivateBase && (a.Addr < lo || a.Addr >= hi) {
				t.Fatalf("core %d touched foreign private block %#x", coreID, a.Addr)
			}
		}
	}
}

func TestEm3dRemoteReads(t *testing.T) {
	p, _ := ByName("em3d")
	p.DisablePaging = true
	g := NewGenerator(p, 0, 16, 11)
	ownLo := PrivateBase
	ownHi := PrivateBase + PrivateStride
	var own, remote int
	for i := 0; i < 100000; i++ {
		a := g.Next()
		if a.Addr < PrivateBase {
			continue
		}
		if a.Addr >= ownLo && a.Addr < ownHi {
			own++
		} else {
			remote++
			if a.Write {
				t.Fatal("remote access must be a read")
			}
		}
	}
	frac := float64(remote) / float64(own+remote)
	if frac < 0.10 || frac > 0.20 {
		t.Errorf("remote fraction = %.3f, want ~0.15 (Table 2)", frac)
	}
}

func TestStreamingSweepsFootprint(t *testing.T) {
	// Streaming workloads must touch (nearly) their whole private
	// footprint, not just a hot subset — that is what fills the Private-L2
	// directory to ~100% for ocean.
	p, _ := ByName("ocean")
	p.DisablePaging = true
	g := NewGenerator(p, 1, 16, 13)
	seen := make(map[uint64]bool)
	// Enough accesses that private (~87% of stream) covers the footprint.
	for i := 0; i < p.PrivateBlocks*2; i++ {
		a := g.Next()
		if a.Addr >= PrivateBase {
			seen[a.Addr] = true
		}
	}
	if got := len(seen); float64(got) < 0.9*float64(p.PrivateBlocks) {
		t.Errorf("streaming touched %d of %d private blocks", got, p.PrivateBlocks)
	}
}

func TestZipfReuseConcentrates(t *testing.T) {
	// Non-streaming (OLTP) private access concentrates on a hot subset.
	p, _ := ByName("db2")
	p.DisablePaging = true
	g := NewGenerator(p, 1, 16, 13)
	counts := make(map[uint64]int)
	var priv int
	for i := 0; i < 200000; i++ {
		a := g.Next()
		if a.Addr >= PrivateBase {
			counts[a.Addr]++
			priv++
		}
	}
	if len(counts) == 0 {
		t.Fatal("no private accesses")
	}
	// The most popular block should be far above uniform.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniform := float64(priv) / float64(p.PrivateBlocks)
	if float64(max) < 5*uniform {
		t.Errorf("hottest block %d accesses vs uniform %.1f — no reuse skew", max, uniform)
	}
}

func TestPaging(t *testing.T) {
	p, _ := ByName("oracle")
	// Translation must be deterministic and identical across cores (one
	// system-wide page table), preserve page offsets, and scatter frames.
	a := NewGenerator(p, 0, 16, 42)
	b := NewGenerator(p, 5, 16, 42)
	logical := CodeBase + 300 // page 2 of the code region, offset 44
	pa := a.translate(logical)
	pb := b.translate(logical)
	if pa != pb {
		t.Fatalf("page table differs across cores: %#x vs %#x", pa, pb)
	}
	if pa&(PageBlocks-1) != logical&(PageBlocks-1) {
		t.Fatalf("page offset not preserved: %#x -> %#x", logical, pa)
	}
	// Different pages map to different frames (with overwhelming
	// probability); same page maps consistently.
	if a.translate(logical) != pa {
		t.Fatal("translation not deterministic")
	}
	other := a.translate(logical + PageBlocks)
	if other>>7 == pa>>7 {
		t.Fatal("adjacent logical pages mapped to the same frame")
	}
	// A different seed yields a different page table.
	c := NewGenerator(p, 0, 16, 43)
	if c.translate(logical) == pa {
		t.Fatal("page table ignores the seed")
	}
	// Frames stay within the physical space.
	for i := uint64(0); i < 1000; i++ {
		paddr := a.translate(PrivateBase + i*PageBlocks)
		if paddr >= 1<<40 {
			t.Fatalf("physical block address %#x exceeds 40 bits", paddr)
		}
	}
}

func TestPagingScattersSlices(t *testing.T) {
	// The home-slice distribution of a streaming private footprint must
	// stay near-uniform after translation (offset bits carry the
	// interleaving, so this is near-automatic; guard it anyway).
	p, _ := ByName("ocean")
	g := NewGenerator(p, 0, 16, 9)
	counts := make([]int, 16)
	for i := 0; i < 100000; i++ {
		counts[g.Next().Addr&15]++
	}
	for s, c := range counts {
		if c < 100000/16/2 {
			t.Errorf("slice %d starved: %d accesses", s, c)
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	p, _ := ByName("db2")
	for _, fn := range []func(){
		func() { NewGenerator(p, -1, 16, 1) },
		func() { NewGenerator(p, 16, 16, 1) },
		func() { NewGenerator(Profile{Name: "bad"}, 0, 16, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestProfileValidate: every suite profile can drive two or more cores,
// and Validate rejects each profile a generator would panic on.
func TestProfileValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(2); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	db2, _ := ByName("db2")
	em3d, _ := ByName("em3d")
	noZipf := db2
	noZipf.ZipfShared = 0
	streaming := em3d // streams its private data, so draws no private Zipf exponent
	streaming.ZipfPrivate = 0
	if err := streaming.Validate(16); err != nil {
		t.Errorf("streaming profile without a private exponent: %v", err)
	}
	for _, tc := range []struct {
		p     Profile
		cores int
		want  string
	}{
		{Profile{Name: "bad"}, 16, "footprints"},
		{noZipf, 16, "Zipf"},
		{em3d, 1, "RemoteFrac"},
	} {
		if err := tc.p.Validate(tc.cores); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s on %d cores: Validate = %v, want an error mentioning %q", tc.p.Name, tc.cores, err, tc.want)
		}
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	p, _ := ByName("oracle")
	g := NewGenerator(p, 0, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}
