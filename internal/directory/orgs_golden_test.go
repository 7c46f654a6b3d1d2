package directory

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cuckoodir/internal/rng"
	"cuckoodir/internal/sharer"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenSteps is the length of TestOrgsGolden's operation stream.
const goldenSteps = 20000

// TestOrgsGolden drives every fuzzOrgs organization, plus coarse-vector
// and limited-pointer cuckoo, with one seeded Read/Write/Evict stream and
// pins one line per organization in testdata/orgs.golden: its DirStats
// (events, attempt-histogram buckets, forced evictions and blocks,
// occupancy sum and sample count), its Len, the sums of Op.Attempts,
// invalidate-mask popcounts and forced entries over the stream, and an
// order-independent census digest. No experiment runs tagless, dup-tag or
// in-cache, so this is what holds them fixed. Like FuzzDirectoryOps, the
// stream skips the fills that would overflow the dup-tag mirror.
// Regenerate with go test ./internal/directory -run TestOrgsGolden
// -update, and only for a change meant to move these numbers.
func TestOrgsGolden(t *testing.T) {
	var names []string
	var dirs []Directory
	for _, o := range fuzzOrgs {
		d, err := BuildNamed(o.name, fuzzCaches)
		if err != nil {
			t.Fatalf("BuildNamed(%q): %v", o.name, err)
		}
		names, dirs = append(names, o.name), append(dirs, d)
	}
	for _, f := range []sharer.Format{sharer.CoarseFormat(), sharer.LimitedFormat(4)} {
		s := Spec{Org: OrgCuckoo, NumCaches: fuzzCaches, Geometry: Geometry{Ways: 4, Sets: 64}, Format: f}
		names, dirs = append(names, s.String()), append(dirs, MustBuild(s))
	}
	type sums struct{ attempts, inv, forced uint64 }
	tally := make([]sums, len(dirs))
	mirror := &dupMirror{truth: map[uint64]uint64{}, load: map[dupKey]int{}}
	r := rng.New(7)
	for step := 0; step < goldenSteps; step++ {
		kind, cache, addr := r.Intn(3), r.Intn(fuzzCaches), uint64(r.Intn(fuzzAddrSpace))
		if mirror.wouldOverflow(kind, addr, cache) {
			continue
		}
		mirror.apply(kind, addr, cache)
		for i, d := range dirs {
			var op Op
			switch kind {
			case 0:
				op = d.Read(addr, cache)
			case 1:
				op = d.Write(addr, cache)
			case 2:
				d.Evict(addr, cache)
			}
			tally[i].attempts += uint64(op.Attempts)
			tally[i].inv += uint64(bits.OnesCount64(op.Invalidate))
			tally[i].forced += uint64(len(op.Forced))
		}
	}
	var b strings.Builder
	for i, d := range dirs {
		st := d.Stats()
		hist := make([]string, st.Attempts.Max()+1)
		for v := range hist {
			hist[v] = fmt.Sprint(st.Attempts.Bucket(v))
		}
		var census uint64
		d.ForEach(func(a, m uint64) bool {
			census += mix64(a ^ mix64(m))
			return true
		})
		fmt.Fprintf(&b, "%s events=%v hist=[%s] forced=%d/%d occ=%x samples=%d len=%d attempts=%d inv=%d forced-ops=%d census=%016x\n",
			names[i], st.Events, strings.Join(hist, " "), st.ForcedEvictions, st.ForcedBlocks,
			st.OccupancySum, st.OccupancySamples, d.Len(),
			tally[i].attempts, tally[i].inv, tally[i].forced, census)
	}
	checkGolden(t, "orgs", b.String())
}

// mix64 is the splitmix64 finalizer, so that the census digest, a sum of
// mixed entries, does not depend on the order ForEach visits them in.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// checkGolden compares got with testdata/<id>.golden, byte for byte, or
// rewrites that file under -update.
func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}
