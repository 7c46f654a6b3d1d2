package directory

import (
	"reflect"
	"strings"
	"testing"

	"cuckoodir/internal/sharer"
)

// TestRegisteredNamesBuild: every name in the registry builds for a
// 16-cache system and lands on the organization its prefix names.
func TestRegisteredNamesBuild(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	seen := make(map[Org]bool)
	for _, name := range names {
		d, err := BuildNamed(name, 16)
		if err != nil {
			t.Fatalf("BuildNamed(%q, 16): %v", name, err)
		}
		if d.NumCaches() != 16 {
			t.Errorf("%q: NumCaches = %d, want 16", name, d.NumCaches())
		}
		spec, ok := LookupSpec(name)
		if !ok {
			t.Fatalf("LookupSpec(%q) failed after successful build", name)
		}
		seen[spec.Org] = true
		if !strings.HasPrefix(name, string(spec.Org)) {
			t.Errorf("%q resolves to organization %q", name, spec.Org)
		}
		// The built directory must be usable.
		d.Read(0x40, 3)
		if sharers, ok := d.Lookup(0x40); !ok || sharers != 1<<3 {
			t.Errorf("%q: Lookup after Read = (%b, %v), want (1000, true)", name, sharers, ok)
		}
	}
	// The canonical table covers every organization.
	for _, org := range Orgs() {
		if !seen[org] {
			t.Errorf("no registered name covers organization %q", org)
		}
	}
}

// TestBuildNamedUnknown: unknown names error and the error names the
// registry contents.
func TestBuildNamedUnknown(t *testing.T) {
	for _, name := range []string{"", "bogus", "bogus-4x512", "cuckoo", "cuckoo-4", "cuckoo-4x512x2", "sparse-8xfoo"} {
		if _, err := BuildNamed(name, 16); err == nil {
			t.Errorf("BuildNamed(%q) succeeded, want error", name)
		} else if !strings.Contains(err.Error(), "unknown organization") {
			t.Errorf("BuildNamed(%q) error %q does not say unknown organization", name, err)
		}
	}
}

// TestParametricNames: unregistered "org-WxS" geometries resolve through
// ParseSpecName.
func TestParametricNames(t *testing.T) {
	cases := []struct {
		name string
		org  Org
		cap  int
	}{
		{"cuckoo-4x64", OrgCuckoo, 256},
		{"sparse-2x128", OrgSparse, 256},
		{"skewed-4x32", OrgSkewed, 128},
		{"elbow-4x32", OrgElbow, 128},
		{"dup-tag-2x64", OrgDuplicateTag, 16 * 2 * 64},
		{"in-cache-1024", OrgInCache, 1024},
		{"ideal-512", OrgIdeal, 512},
		{"ideal", OrgIdeal, 0},
	}
	for _, c := range cases {
		d, err := BuildNamed(c.name, 16)
		if err != nil {
			t.Fatalf("BuildNamed(%q): %v", c.name, err)
		}
		if got := d.Capacity(); got != c.cap {
			t.Errorf("%q: Capacity = %d, want %d", c.name, got, c.cap)
		}
	}
	// Parametric tagless: sets x bucket bits x hashes.
	if d, err := BuildNamed("tagless-64x32x2", 8); err != nil {
		t.Fatalf("BuildNamed(tagless-64x32x2): %v", err)
	} else if d.Name() != "tagless" {
		t.Errorf("tagless parametric name built %q", d.Name())
	}
}

// TestParametricNameBadGeometry: the name parses but the geometry fails
// validation at build time.
func TestParametricNameBadGeometry(t *testing.T) {
	for _, name := range []string{"cuckoo-4x63", "cuckoo-1x64", "cuckoo-4x1", "skewed-2x1", "elbow-2x1", "sparse-8x0", "tagless-64x33x2", "tagless-64x32x9", "in-cache-0"} {
		if _, ok := LookupSpec(name); !ok {
			t.Fatalf("LookupSpec(%q) should parse (validation is Build's job)", name)
		}
		if _, err := BuildNamed(name, 16); err == nil {
			t.Errorf("BuildNamed(%q) succeeded, want geometry error", name)
		}
	}
}

// TestSpecStringRoundTrips: String renders a parseable name for specs
// with default parameters.
func TestSpecStringRoundTrips(t *testing.T) {
	specs := []Spec{
		{Org: OrgCuckoo, Geometry: Geometry{Ways: 4, Sets: 512}},
		{Org: OrgSparse, Geometry: Geometry{Ways: 8, Sets: 2048}},
		{Org: OrgSkewed, Geometry: Geometry{Ways: 4, Sets: 1024}},
		{Org: OrgElbow, Geometry: Geometry{Ways: 4, Sets: 1024}},
		{Org: OrgDuplicateTag, Geometry: Geometry{Ways: 16, Sets: 1024}},
		{Org: OrgTagless, Geometry: Geometry{Sets: 1024}, Tagless: TaglessParams{BucketBits: 32, Hashes: 2}},
		{Org: OrgInCache, Capacity: 16384},
		{Org: OrgIdeal},
		{Org: OrgIdeal, Capacity: 2048},
	}
	for _, spec := range specs {
		parsed, ok := ParseSpecName(spec.String())
		if !ok {
			t.Errorf("ParseSpecName(%q) failed", spec.String())
			continue
		}
		if !reflect.DeepEqual(parsed, spec) {
			t.Errorf("round trip of %q: got %+v, want %+v", spec.String(), parsed, spec)
		}
	}
}

// TestRegisterErrors: duplicates, empty names and invalid specs are
// rejected; successful registrations resolve.
func TestRegisterErrors(t *testing.T) {
	// The name is org-prefixed because the registry is process-global:
	// TestRegisteredNamesBuild iterates Names() and asserts every entry's
	// prefix matches its organization. Registrations are removed on
	// cleanup so the package stays idempotent under `go test -count=N`.
	t.Cleanup(func() {
		registry.Lock()
		delete(registry.specs, "cuckoo-test-register-ok")
		delete(registry.specs, "cuckoo-test-register-bound")
		registry.Unlock()
	})
	good := Spec{Org: OrgCuckoo, Geometry: Geometry{Ways: 4, Sets: 64}}
	if err := Register("cuckoo-test-register-ok", good); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := Register("cuckoo-test-register-ok", good); err == nil {
		t.Error("duplicate Register succeeded")
	}
	if err := Register("", good); err == nil {
		t.Error("empty-name Register succeeded")
	}
	bad := Spec{Org: OrgCuckoo, Geometry: Geometry{Ways: 4, Sets: 63}}
	if err := Register("cuckoo-test-register-bad", bad); err == nil {
		t.Error("invalid-spec Register succeeded")
	}
	if _, err := BuildNamed("cuckoo-test-register-ok", 8); err != nil {
		t.Errorf("BuildNamed of registered spec: %v", err)
	}
	// numCaches 0 falls back to the registered count when there is one,
	// and errors helpfully when there is not.
	if err := Register("cuckoo-test-register-bound", good.WithCaches(4)); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if d, err := BuildNamed("cuckoo-test-register-bound", 0); err != nil {
		t.Errorf("BuildNamed(bound, 0): %v", err)
	} else if d.NumCaches() != 4 {
		t.Errorf("BuildNamed(bound, 0): NumCaches = %d, want the registered 4", d.NumCaches())
	}
	if _, err := BuildNamed("cuckoo-test-register-ok", 0); err == nil {
		t.Error("BuildNamed(unbound, 0) succeeded, want an error naming numCaches")
	} else if !strings.Contains(err.Error(), "numCaches") {
		t.Errorf("BuildNamed(unbound, 0) error %q does not mention numCaches", err)
	}
}

// TestSpecValidate: the validation matrix the Build path relies on to
// never panic.
func TestSpecValidate(t *testing.T) {
	valid := []Spec{
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 3, Sets: 8192}},
		{Org: OrgCuckoo, NumCaches: 64, Geometry: Geometry{Ways: 2, Sets: 2},
			Cuckoo: CuckooParams{StrongHash: true, BucketSize: 2, StashSize: 4, MaxAttempts: 8}},
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 64}, Format: sharer.CoarseFormat()},
		// Sets=1 is fine with an explicit hash family (only the default
		// skewing family needs >= 1 index bit).
		{Org: OrgCuckoo, NumCaches: 8, Geometry: Geometry{Ways: 4, Sets: 1}, Cuckoo: CuckooParams{StrongHash: true}},
		{Org: OrgCuckoo, NumCaches: 8, Geometry: Geometry{Ways: 4, Sets: 1}, Cuckoo: CuckooParams{Hash: xorFold{}}},
		{Org: OrgSparse, NumCaches: 1, Geometry: Geometry{Ways: 1, Sets: 1}},
		{Org: OrgTagless, NumCaches: 8, Geometry: Geometry{Sets: 64}, Tagless: TaglessParams{BucketBits: 32, Hashes: 2}},
		{Org: OrgIdeal, NumCaches: 16},
		{Org: OrgInCache, NumCaches: 16, Capacity: 1024},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", s, err)
		}
		if _, err := Build(s); err != nil {
			t.Errorf("Build(%s) = %v, want nil", s, err)
		}
	}
	invalid := []Spec{
		{},                             // unknown org, no caches
		{Org: "alien", NumCaches: 16},  // unknown org
		{Org: OrgIdeal},                // NumCaches 0 outside the registry
		{Org: OrgIdeal, NumCaches: 65}, // too many caches
		{Org: OrgIdeal, NumCaches: -1}, // negative caches
		{Org: OrgIdeal, NumCaches: 16, Capacity: -1},
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 1, Sets: 64}}, // ways < 2
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 9, Sets: 64}}, // ways > hashfn.MaxWays
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 48}}, // sets not 2^k
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 0}},  // no sets
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 1}},  // skew hash needs >= 1 index bit
		{Org: OrgSkewed, NumCaches: 16, Geometry: Geometry{Ways: 2, Sets: 1}},  // skew hash needs >= 1 index bit
		{Org: OrgElbow, NumCaches: 16, Geometry: Geometry{Ways: 2, Sets: 1}},   // skew hash needs >= 1 index bit
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 64},
			Cuckoo: CuckooParams{MaxAttempts: -1}},
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 64},
			Cuckoo: CuckooParams{StrongHash: true, Hash: xorFold{}}}, // both hash selectors
		{Org: OrgSparse, NumCaches: 16, Geometry: Geometry{Ways: 0, Sets: 64}},
		{Org: OrgSkewed, NumCaches: 16, Geometry: Geometry{Ways: 1, Sets: 64}},
		{Org: OrgElbow, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 100}},
		{Org: OrgDuplicateTag, NumCaches: 16, Geometry: Geometry{Ways: 0, Sets: 64}},
		{Org: OrgTagless, NumCaches: 16, Geometry: Geometry{Sets: 64}, Tagless: TaglessParams{BucketBits: 31, Hashes: 2}},
		{Org: OrgTagless, NumCaches: 16, Geometry: Geometry{Sets: 64}, Tagless: TaglessParams{BucketBits: 32, Hashes: 0}},
		{Org: OrgInCache, NumCaches: 16}, // needs Capacity
		{Org: OrgSparse, NumCaches: 16, Geometry: Geometry{Ways: 8, Sets: 64},
			Format: sharer.CoarseFormat()}, // formats are cuckoo-only
		// Geometries whose slot count would overflow (or exhaust memory)
		// must fail validation, not panic or OOM at build/use time.
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 1 << 32, Sets: 1 << 32},
			Cuckoo: CuckooParams{StrongHash: true}},
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 1 << 33}},
		{Org: OrgCuckoo, NumCaches: 16, Geometry: Geometry{Ways: 4, Sets: 1 << 20},
			Cuckoo: CuckooParams{BucketSize: 1 << 40}},
		{Org: OrgSparse, NumCaches: 16, Geometry: Geometry{Ways: 1 << 32, Sets: 1 << 32}},
		{Org: OrgSkewed, NumCaches: 16, Geometry: Geometry{Ways: 1 << 31, Sets: 1 << 31}},
		{Org: OrgDuplicateTag, NumCaches: 16, Geometry: Geometry{Ways: 1 << 32, Sets: 1 << 32}},
		{Org: OrgTagless, NumCaches: 16, Geometry: Geometry{Sets: 1 << 32},
			Tagless: TaglessParams{BucketBits: 1 << 32, Hashes: 2}},
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
		if _, err := Build(s); err == nil {
			t.Errorf("Build(%+v) = nil error, want error", s)
		}
	}
}

// TestSpecValidateFor: a Duplicate-Tag or Tagless spec must hold every
// block of the tracked cache sets that map onto one of its sets, and the
// registry's mirrors fit the paper's caches.
func TestSpecValidateFor(t *testing.T) {
	cases := []struct {
		name        string
		sets, assoc int
		fits        bool
	}{
		{"dup-tag-2x512", 512, 2, true},       // Shared-L2 L1 mirror
		{"dup-tag-16x1024", 1024, 16, true},   // Private-L2 mirror
		{"dup-tag-16x1024", 512, 2, true},     // wider than needed
		{"dup-tag-4x512", 1024, 2, true},      // two cache sets per set, twice the ways
		{"dup-tag-2x512", 1024, 2, false},     // the same sets with too few ways
		{"dup-tag-2x512", 1024, 16, false},    // a Private-L2 cache in an L1 mirror
		{"tagless-1024x32x2", 1024, 16, true}, // 16 blocks x 2 probe bits per filter
		{"tagless-512x32x2", 1024, 16, true},  // 32 blocks x 2
		{"tagless-1x32x8", 64, 16, false},     // 1024 blocks x 8 overflow 8-bit counters
		{"cuckoo-4x64", 1 << 20, 64, true},    // only dup-tag and tagless are bounded
		{"cuckoo-1x64", 64, 2, false},         // and Validate still applies
	}
	for _, tc := range cases {
		spec, ok := LookupSpec(tc.name)
		if !ok {
			t.Fatalf("unknown name %q", tc.name)
		}
		if err := spec.WithCaches(16).ValidateFor(tc.sets, tc.assoc); (err == nil) != tc.fits {
			t.Errorf("%s on %dx%d caches: ValidateFor = %v, want fits=%v", tc.name, tc.sets, tc.assoc, err, tc.fits)
		}
	}
}

// TestShardedNames: the sharded-N(...) grammar resolves through the
// registry, round-trips through Spec.String, and builds a
// ShardedDirectory with the named shard count and home function.
func TestShardedNames(t *testing.T) {
	cases := []struct {
		name  string
		count int
		home  Home
		org   Org
	}{
		{"sharded-8(cuckoo-4x512)", 8, HomeMix, OrgCuckoo},
		{"sharded-2@mix(ideal)", 2, HomeMix, OrgIdeal},
		{"sharded-4@interleave(sparse-8x2048)", 4, HomeInterleave, OrgSparse},
		{"sharded-16(tagless-1024x32x2)", 16, HomeMix, OrgTagless},
		{"sharded-2(skew-4x1024)", 2, HomeMix, OrgSkewed},
	}
	for _, c := range cases {
		spec, ok := LookupSpec(c.name)
		if !ok {
			t.Errorf("%s did not resolve", c.name)
			continue
		}
		if spec.Shard.Count != c.count || spec.Shard.Home != c.home || spec.Org != c.org {
			t.Errorf("%s: parsed %+v", c.name, spec.Shard)
		}
		d, err := BuildNamed(c.name, 16)
		if err != nil {
			t.Errorf("%s: build: %v", c.name, err)
			continue
		}
		sd, ok := d.(*ShardedDirectory)
		if !ok {
			t.Errorf("%s: built %T, want *ShardedDirectory", c.name, d)
			continue
		}
		if sd.ShardCount() != c.count || sd.Home() != c.home {
			t.Errorf("%s: built %d shards home %s", c.name, sd.ShardCount(), sd.Home())
		}
	}
}

// TestShardedNameRejects: malformed sharded names do not resolve, and
// invalid shard counts fail validation rather than building.
func TestShardedNameRejects(t *testing.T) {
	for _, name := range []string{
		"sharded-(cuckoo-4x512)",
		"sharded-8",
		"sharded-8()",
		"sharded-8(nonsense-1x2)",
		"sharded-8@north(cuckoo-4x512)",
		"sharded-0(cuckoo-4x512)",
		"sharded-8(sharded-2(cuckoo-4x512))", // no nesting
	} {
		if _, ok := ParseSpecName(name); ok {
			t.Errorf("%s resolved, want rejection", name)
		}
	}
	// Non-power-of-two counts parse but fail validation at build time.
	if _, err := BuildNamed("sharded-3(cuckoo-4x512)", 16); err == nil {
		t.Error("sharded-3 built, want a power-of-two error")
	}
}

// TestOrgAliases: skew- and dup- resolve to their full organizations.
func TestOrgAliases(t *testing.T) {
	spec, ok := ParseSpecName("skew-4x1024")
	if !ok || spec.Org != OrgSkewed || spec.Geometry != (Geometry{Ways: 4, Sets: 1024}) {
		t.Fatalf("skew-4x1024: ok=%v spec=%v", ok, spec)
	}
	spec, ok = ParseSpecName("dup-16x1024")
	if !ok || spec.Org != OrgDuplicateTag {
		t.Fatalf("dup-16x1024: ok=%v spec=%v", ok, spec)
	}
}

// TestShardedNameErrors: malformed sharded and resize-policy names must
// fail BuildNamed with an error that says what is wrong — never a panic
// and never the generic unknown-organization listing.
func TestShardedNameErrors(t *testing.T) {
	cases := []struct {
		name string
		want string // substring of the error
	}{
		{"sharded-8", "missing the (inner) organization"},
		{"sharded-8cuckoo-4x512", "missing the (inner) organization"},
		{"sharded-(cuckoo-4x512)", "must be a positive integer"},
		{"sharded--2(cuckoo-4x512)", "must be a positive integer"},
		{"sharded-0(cuckoo-4x512)", "must be a positive integer"},
		{"sharded-8@north(cuckoo-4x512)", "home"},
		{"sharded-8(nonsense-1x2)", "neither registered nor a parametric name"},
		{"sharded-8(sharded-2(cuckoo-4x512))", "nested sharding is not supported"},
		{"sharded-8^shrink=0.5(cuckoo-4x512)", "unknown resize policy"},
		{"sharded-8^grow=(cuckoo-4x512)", "not a number"},
		{"sharded-8^grow=high(cuckoo-4x512)", "not a number"},
		{"sharded-8^grow=1.5(cuckoo-4x512)", "must be in (0,1]"},
		{"sharded-8^grow=0(cuckoo-4x512)", "must be in (0,1]"},
		{"sharded-8^grow=-0.5(cuckoo-4x512)", "must be in (0,1]"},
		{"sharded-8^grow=0.85x3(cuckoo-4x512)", "power of two"},
		{"sharded-8^grow=0.85x-2(cuckoo-4x512)", "power of two"},
		{"sharded-8^grow=0.85xtwo(cuckoo-4x512)", "not an integer"},
	}
	for _, c := range cases {
		d, err := BuildNamed(c.name, 8)
		if err == nil {
			t.Errorf("%s: built %v, want an error", c.name, d.Name())
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not explain the problem (want substring %q)", c.name, err, c.want)
		}
		if strings.Contains(err.Error(), "registered:") {
			t.Errorf("%s: fell back to the unknown-organization listing: %q", c.name, err)
		}
		// And the boolean contract: these names do not resolve.
		if _, ok := ParseSpecName(c.name); ok {
			t.Errorf("%s: ParseSpecName resolved a malformed name", c.name)
		}
		// LookupSpecErr (the CLI's resolution path) reports the same
		// grammar diagnosis, not the unknown-organization listing.
		if _, err := LookupSpecErr(c.name); err == nil {
			t.Errorf("%s: LookupSpecErr resolved a malformed name", c.name)
		} else if !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "registered:") {
			t.Errorf("%s: LookupSpecErr = %q, want substring %q without the listing", c.name, err, c.want)
		}
	}
	if _, err := LookupSpecErr("nonsense"); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("LookupSpecErr(nonsense) = %v, want the registered-names listing", err)
	}
	if spec, err := LookupSpecErr("sharded-8^grow=0.85(cuckoo-4x512)"); err != nil || spec.Shard.Resize.MaxLoad != 0.85 {
		t.Errorf("LookupSpecErr(well-formed grow name) = %+v, %v", spec, err)
	}
}

// TestShardedGrowNames: well-formed ^grow names parse into the policy,
// build, and round-trip through Spec.String.
func TestShardedGrowNames(t *testing.T) {
	cases := []struct {
		name string
		pol  ResizePolicy
	}{
		{"sharded-8^grow=0.85(cuckoo-4x512)", ResizePolicy{MaxLoad: 0.85}},
		{"sharded-8^grow=0.85x2(cuckoo-4x512)", ResizePolicy{MaxLoad: 0.85, Factor: 2}},
		{"sharded-4@interleave^grow=0.5x4(sparse-8x64)", ResizePolicy{MaxLoad: 0.5, Factor: 4}},
	}
	for _, c := range cases {
		spec, ok := ParseSpecName(c.name)
		if !ok {
			t.Errorf("%s did not resolve", c.name)
			continue
		}
		if spec.Shard.Resize != c.pol {
			t.Errorf("%s: policy %+v, want %+v", c.name, spec.Shard.Resize, c.pol)
		}
		d, err := BuildNamed(c.name, 8)
		if err != nil {
			t.Errorf("%s: build: %v", c.name, err)
			continue
		}
		sd := d.(*ShardedDirectory)
		if got := sd.ResizePolicy(); got != c.pol {
			t.Errorf("%s: built policy %+v, want %+v", c.name, got, c.pol)
		}
	}
}

// TestSpecValidateResizePolicy: policy misuse is caught by Validate with
// a targeted error.
func TestSpecValidateResizePolicy(t *testing.T) {
	base := Spec{Org: OrgCuckoo, NumCaches: 8, Geometry: Geometry{Ways: 4, Sets: 64}}
	cases := []struct {
		mutate func(*Spec)
		want   string
	}{
		{func(s *Spec) { s.Shard.Resize = ResizePolicy{MaxLoad: 0.9} }, "Shard.Resize set on an unsharded spec"},
		{func(s *Spec) { s.Shard = ShardSpec{Count: 2, Resize: ResizePolicy{MaxLoad: 2}} }, "need 0 < MaxLoad <= 1"},
		{func(s *Spec) { s.Shard = ShardSpec{Count: 2, Resize: ResizePolicy{Factor: 2}} }, "MaxLoad = 0"},
		{func(s *Spec) { s.Shard = ShardSpec{Count: 2, Resize: ResizePolicy{MaxLoad: 0.9, Factor: 6}} }, "power of two"},
		{func(s *Spec) { s.Shard = ShardSpec{Count: 2, Resize: ResizePolicy{MaxLoad: 0.9, Run: -1}} }, "Run = -1"},
	}
	for i, c := range cases {
		s := base
		c.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("case %d: spec validated, want an error", i)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q, want substring %q", i, err, c.want)
		}
	}
}
