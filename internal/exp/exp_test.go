package exp

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/coherence"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/stats"
	"cuckoodir/internal/workload"
)

// tableType aliases the stats table type for test readability.
type tableType = stats.Table

func TestRegistry(t *testing.T) {
	all := All()
	want := []string{
		"table1", "table2", "fig4", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "mix", "hashes", "ablation", "formats",
		"analytic", "latency", "replay", "resize", "degrade", "saturate",
	}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Expect == "" || e.Run == nil {
			t.Errorf("%s: incomplete experiment definition", e.ID)
		}
	}
	if _, err := ByID("fig7"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID of unknown id succeeded")
	}
	if len(IDs()) != len(want) {
		t.Error("IDs() incomplete")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale names wrong")
	}
}

func TestTable1(t *testing.T) {
	ts := runExp(t, "table1")
	body := ts[0].String()
	for _, want := range []string{"16 cores", "512 sets x 2 ways", "1024 sets x 16 ways", "2048", "16384"} {
		if !strings.Contains(body, want) {
			t.Errorf("table1 missing %q:\n%s", want, body)
		}
	}
}

func TestTable2(t *testing.T) {
	ts := runExp(t, "table2")
	body := ts[0].String()
	for _, wl := range []string{"db2", "oracle", "qry2", "qry16", "qry17", "apache", "zeus", "em3d", "ocean"} {
		if !strings.Contains(body, wl) {
			t.Errorf("table2 missing workload %q", wl)
		}
	}
}

func runExp(t *testing.T, id string) []*tableType {
	t.Helper()
	return runOpts(t, id, Options{Scale: Quick})
}

// runOpts runs experiment id with o and checks it produced tables, none
// of them empty.
func runOpts(t *testing.T, id string, o Options) []*tableType {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tb := range ts {
		if tb.NumRows() == 0 {
			t.Fatalf("%s produced an empty table %q", id, tb.Title)
		}
	}
	return ts
}

func TestFig4Shapes(t *testing.T) {
	ts := runExp(t, "fig4")
	if len(ts) != 2 {
		t.Fatalf("fig4 tables = %d", len(ts))
	}
	// Energy table: Duplicate-Tag column must grow by >10x from first to
	// last row.
	energyTbl := ts[1]
	first := parsePct(t, energyTbl.Cell(0, 1))
	last := parsePct(t, energyTbl.Cell(energyTbl.NumRows()-1, 1))
	if last < first*10 {
		t.Errorf("fig4: Duplicate-Tag energy grew only %.1fx", last/first)
	}
}

func TestFig7Shapes(t *testing.T) {
	ts := runExp(t, "fig7")
	att, fail := ts[0], ts[1]
	// At the 0.50 occupancy row (index 9), 3/4/8-ary attempts <= 2 and
	// failure probability zero.
	for col := 2; col <= 4; col++ {
		a := parseFloat(t, att.Cell(9, col))
		if a > 2.0 {
			t.Errorf("fig7: %s attempts at 50%% = %.2f, want <= 2", att.Headers()[col], a)
		}
		f := fail.Cell(9, col)
		if f != "0" {
			t.Errorf("fig7: %s failure at 50%% = %s, want 0", fail.Headers()[col], f)
		}
	}
}

func TestFig13IncludesCuckoo(t *testing.T) {
	ts := runExp(t, "fig13")
	if len(ts) != 4 {
		t.Fatalf("fig13 tables = %d", len(ts))
	}
	hdr := strings.Join(ts[0].Headers(), " ")
	if !strings.Contains(hdr, "Cuckoo Coarse") || !strings.Contains(hdr, "Cuckoo Hierarchical") {
		t.Errorf("fig13 headers missing Cuckoo variants: %s", hdr)
	}
	// Private-L2 tables must mark In-Cache n/a.
	if !strings.Contains(ts[2].String(), "n/a") {
		t.Error("fig13 Private-L2 should mark In-Cache n/a")
	}
}

func TestAblation(t *testing.T) {
	ts := runExp(t, "ablation")
	if len(ts) != 2 {
		t.Fatalf("ablation tables = %d", len(ts))
	}
	if ts[0].NumRows() != 5 {
		t.Fatalf("ablation rows = %d", ts[0].NumRows())
	}
	// Displacement-budget ordering: skewed >= elbow >= cuckoo per row.
	el := ts[1]
	for r := 0; r < el.NumRows(); r++ {
		sk := parseFloat(t, el.Cell(r, 1))
		eb := parseFloat(t, el.Cell(r, 2))
		ck := parseFloat(t, el.Cell(r, 3))
		if !(sk >= eb && eb >= ck) {
			t.Errorf("row %d: ordering violated: skewed=%v elbow=%v cuckoo=%v", r, sk, eb, ck)
		}
	}
}

func TestAnalytic(t *testing.T) {
	ts := runExp(t, "analytic")
	if len(ts) != 2 {
		t.Fatalf("analytic tables = %d", len(ts))
	}
	sparse, ck := ts[0], ts[1]
	// Model and measurement agree within a few percentage points at every
	// sparse occupancy row.
	for r := 0; r < sparse.NumRows(); r++ {
		m := parsePct(t, normPct(sparse.Cell(r, 1)))
		meas := parsePct(t, normPct(sparse.Cell(r, 2)))
		if diff := m - meas; diff < -5 || diff > 5 {
			t.Errorf("sparse row %d: model %.2f%% vs measured %.2f%%", r, m, meas)
		}
	}
	if ck.NumRows() != 4 {
		t.Fatalf("cuckoo rows = %d", ck.NumRows())
	}
}

func TestLatencyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ts := runExp(t, "latency")
	checkGolden(t, "latency", ts)
	// Wait fraction column must be tiny for the cuckoo row.
	body := ts[0].String()
	if !strings.Contains(body, "cuckoo") {
		t.Fatalf("latency table missing cuckoo row:\n%s", body)
	}
}

// TestReplayQuick: the replay-throughput sweep produces one row per
// configuration with live throughput in every row, covers both
// submission paths and both home functions, and honors the Orgs
// override (sharded names are skipped with a note, not double-wrapped).
func TestReplayQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput experiment")
	}
	ts := runExp(t, "replay")
	tb := ts[0]
	if tb.NumRows() != 7 {
		t.Fatalf("replay rows = %d, want 7", tb.NumRows())
	}
	paths, homes := map[string]bool{}, map[string]bool{}
	for r := 0; r < tb.NumRows(); r++ {
		paths[tb.Cell(r, 3)] = true
		homes[tb.Cell(r, 2)] = true
		if v := parseFloat(t, tb.Cell(r, 6)); v <= 0 {
			t.Errorf("row %d: throughput %v kacc/s", r, v)
		}
	}
	if !paths["applyshard"] || !paths["engine"] {
		t.Errorf("paths covered: %v, want both applyshard and engine", paths)
	}
	if !homes["mix"] || !homes["interleave"] {
		t.Errorf("homes covered: %v, want both mix and interleave", homes)
	}

	ts = runOpts(t, "replay", Options{Scale: Quick, Orgs: []string{"cuckoo-4x512", "sharded-2(cuckoo-4x512)"}})
	tb = ts[0]
	if tb.NumRows() != 7 {
		t.Fatalf("override rows = %d, want 7 (one eligible org)", tb.NumRows())
	}
	for r := 0; r < tb.NumRows(); r++ {
		if tb.Cell(r, 0) != "cuckoo-4x512" {
			t.Errorf("override row %d org = %q", r, tb.Cell(r, 0))
		}
	}
}

func TestFig8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ts := runExp(t, "fig8")
	checkGolden(t, "fig8", ts)
	tb := ts[0]
	// Every row: private occupancy >= shared occupancy (sharing shrinks
	// the shared-config block count relative to capacity).
	for r := 0; r < tb.NumRows(); r++ {
		sh := parsePct(t, tb.Cell(r, 2))
		pr := parsePct(t, tb.Cell(r, 3))
		if sh <= 0 || pr <= 0 {
			t.Fatalf("fig8 row %d: empty cells", r)
		}
		if tb.Cell(r, 0) == "ocean" && pr < 85 {
			t.Errorf("fig8: ocean Private-L2 occupancy %.1f%%, want near 100%%", pr)
		}
	}
}

func TestFig9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ts := runExp(t, "fig9")
	checkGolden(t, "fig9", ts)
	if len(ts) != 2 {
		t.Fatalf("fig9 tables = %d", len(ts))
	}
	for i, tb := range ts {
		// Rows are ordered over- to under-provisioned; the last row must
		// show (weakly) more insertion attempts than the first, and the
		// under-provisioned row must force invalidations.
		first := parseFloat(t, tb.Cell(0, 2))
		last := parseFloat(t, tb.Cell(tb.NumRows()-1, 2))
		if last < first {
			t.Errorf("table %d: attempts fell from %.2f to %.2f as provisioning shrank", i, first, last)
		}
		if tb.Cell(tb.NumRows()-1, 3) == "0" {
			t.Errorf("table %d: under-provisioned row shows zero invalidations", i)
		}
		if tb.Cell(0, 3) != "0" {
			// Over-provisioned (1.5x/2x) should be clean or nearly so.
			if v := parsePct(t, tb.Cell(0, 3)); v > 0.1 {
				t.Errorf("table %d: over-provisioned invalidation rate %.3f%%", i, v)
			}
		}
	}
}

func TestFig10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ts := runExp(t, "fig10")
	checkGolden(t, "fig10", ts)
	tb := ts[0]
	for r := 0; r < tb.NumRows(); r++ {
		for _, col := range []int{2, 3} {
			v := parseFloat(t, tb.Cell(r, col))
			if v < 1 || v > 3.0 {
				t.Errorf("%s %s: avg attempts %.2f outside [1,3] (paper: typically < 2)",
					tb.Cell(r, 0), tb.Headers()[col], v)
			}
		}
	}
}

func TestFig11Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ts := runExp(t, "fig11")
	checkGolden(t, "fig11", ts)
	tb := ts[0]
	if tb.NumRows() != 32 {
		t.Fatalf("rows = %d, want 32", tb.NumRows())
	}
	// Fraction at 1 attempt dominates; the cap bucket is "nearly zero"
	// with no peak (paper: "lack of a peak at 32 indicates that longer
	// insertions and loops are practically non-existent").
	for _, col := range []int{1, 2} {
		first := parsePct(t, normPct(tb.Cell(0, col)))
		if first < 50 {
			t.Errorf("col %d: only %.1f%% of inserts at 1 attempt", col, first)
		}
		cap32 := parsePct(t, normPct(tb.Cell(31, col)))
		if cap32 > 0.05 {
			t.Errorf("col %d: %.4f%% of inserts at the 32-attempt cap, want nearly zero", col, cap32)
		}
		second := parsePct(t, normPct(tb.Cell(1, col)))
		if cap32 > second && cap32 > 0 {
			t.Errorf("col %d: peak at the cap (%.4f%% > %.4f%% at 2 attempts)", col, cap32, second)
		}
	}
}

func normPct(s string) string {
	if s == "0" {
		return "0%"
	}
	return s
}

func TestFig12Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ts := runExp(t, "fig12")
	checkGolden(t, "fig12", ts)
	if len(ts) != 2 {
		t.Fatalf("fig12 tables = %d", len(ts))
	}
	for _, tb := range ts {
		// Suite-average ordering: Sparse 2x > Cuckoo, and Cuckoo ~ 0.
		var sp2, ck float64
		for r := 0; r < tb.NumRows(); r++ {
			sp2 += parsePct(t, normPct(tb.Cell(r, 1)))
			ck += parsePct(t, normPct(tb.Cell(r, 4)))
		}
		if sp2 <= ck {
			t.Errorf("%s: Sparse 2x total %.3f%% not above Cuckoo %.3f%%", tb.Title, sp2, ck)
		}
		if ck > 0.5 {
			t.Errorf("%s: Cuckoo suite invalidations %.3f%% — should be near zero", tb.Title, ck)
		}
	}
}

func TestMixQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ts := runExp(t, "mix")
	checkGolden(t, "mix", ts)
	tb := ts[0]
	if tb.NumRows() != 5 {
		t.Fatalf("mix rows = %d", tb.NumRows())
	}
	// Insert and remove-tag fractions must roughly balance (every tracked
	// block enters once and leaves once) in both configurations.
	for _, col := range []int{1, 2} {
		ins := parsePct(t, tb.Cell(0, col))
		rmt := parsePct(t, tb.Cell(3, col))
		if ins < 5 || rmt < 5 {
			t.Errorf("col %d: degenerate mix ins=%.1f rmt=%.1f", col, ins, rmt)
		}
		if diff := ins - rmt; diff < -12 || diff > 12 {
			t.Errorf("col %d: insert %.1f%% vs remove-tag %.1f%% unbalanced", col, ins, rmt)
		}
	}
}

func TestHashesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ts := runExp(t, "hashes")
	checkGolden(t, "hashes", ts)
	tb := ts[0]
	if tb.NumRows()%2 != 0 {
		t.Fatalf("hashes rows = %d, want skew/strong pairs", tb.NumRows())
	}
	sawAdverse := false
	for r := 0; r < tb.NumRows(); r += 2 {
		skew := parseFloat(t, tb.Cell(r, 6))
		strong := parseFloat(t, tb.Cell(r+1, 6))
		// Strong hashing must never be meaningfully worse than skewing.
		if strong > skew*1.25+0.1 {
			t.Errorf("row %d: strong attempts %.2f much worse than skew %.2f", r, strong, skew)
		}
		// On contiguous (unscattered) addresses the linear skew family
		// degrades — more attempts or nonzero forced invalidations —
		// while strong hashing stays clean: the §5.5 "strong hashes help
		// most under adverse conditions" signal.
		if tb.Cell(r, 4) == "contiguous" {
			sawAdverse = true
			skewInval := tb.Cell(r, 7)
			strongInval := tb.Cell(r+1, 7)
			attemptsWorse := skew >= strong*1.3
			invalWorse := skewInval != "0" && strongInval == "0"
			if !attemptsWorse && !invalWorse {
				t.Errorf("row %d (contiguous): skew (%.2f att, %s inval) not clearly worse than strong (%.2f att, %s inval)",
					r, skew, skewInval, strong, strongInval)
			}
		}
	}
	if !sawAdverse {
		t.Error("hashes experiment lost its contiguous-address rows")
	}
}

func TestFormatsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ts := runExp(t, "formats")
	checkGolden(t, "formats", ts)
	tb := ts[0]
	if tb.NumRows() != 4 {
		t.Fatalf("formats rows = %d", tb.NumRows())
	}
	// Full and hierarchical are exact: zero spurious invalidations.
	for _, r := range []int{0, 3} {
		if tb.Cell(r, 2) != "0" {
			t.Errorf("%s: spurious invalidations = %s, want 0", tb.Cell(r, 0), tb.Cell(r, 2))
		}
	}
	// Coarse must show the over-approximation cost.
	if tb.Cell(1, 2) == "0" {
		t.Error("coarse format showed no spurious invalidations on a sharing workload")
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad percent cell %q: %v", s, err)
	}
	return v
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float cell %q: %v", s, err)
	}
	return v
}

// TestOrgsOverride: Options.Orgs replaces fig12's lineup with exactly
// the named organizations, in order, headers included.
func TestOrgsOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	orgs := []string{"cuckoo-4x1024", "skew-4x1024"}
	ts := runOpts(t, "fig12", Options{Scale: Quick, Orgs: orgs})
	if len(ts) != 2 {
		t.Fatalf("fig12 tables = %d", len(ts))
	}
	for _, tb := range ts {
		h := tb.Headers()
		if len(h) != 1+len(orgs) {
			t.Fatalf("%s: headers %v, want Workload + %v", tb.Title, h, orgs)
		}
		for i, name := range orgs {
			if h[1+i] != name {
				t.Errorf("%s: header[%d] = %q, want %q", tb.Title, 1+i, h[1+i], name)
			}
		}
	}
}

// TestOrgsOverrideRejectsUnknown: an unresolvable name is an error,
// and so is a name one of the checks refuses.
func TestOrgsOverrideRejectsUnknown(t *testing.T) {
	if _, err := orgOverrides(Options{Orgs: []string{"nonsense-1x2"}}); err == nil ||
		!strings.Contains(err.Error(), `unknown organization "nonsense-1x2"`) {
		t.Errorf("unknown name: err = %v", err)
	}
	refuse := func(directory.Spec) error { return errors.New("refused") }
	if _, err := orgOverrides(Options{Orgs: []string{"cuckoo-4x512"}}, refuse); err == nil ||
		!strings.Contains(err.Error(), `"cuckoo-4x512": refused`) {
		t.Errorf("refused name: err = %v", err)
	}
}

// TestCheckSliceMatchesNew: for every registered organization on the
// Shared-L2, Private-L2 and protocol configurations, CheckSlice errs
// exactly when New does (it builds the systems but runs none of them),
// and fig9, fig12, formats and latency return a refused -dir name's
// error before they simulate anything.
func TestCheckSliceMatchesNew(t *testing.T) {
	prof, err := workload.ByName("oracle")
	if err != nil {
		t.Fatal(err)
	}
	shared, private := cmpsim.DefaultConfig(cmpsim.SharedL2), cmpsim.DefaultConfig(cmpsim.PrivateL2)
	protocol := coherence.DefaultConfig()
	names := directory.Names()
	if len(names) != 11 {
		t.Errorf("registry has %d names, want 11", len(names))
	}
	refused := 0
	for _, name := range names {
		spec, _ := directory.LookupSpec(name)
		for _, sim := range []struct {
			label string
			check error
			build func() error
		}{
			{"Shared-L2", shared.CheckSlice(spec), func() error { _, err := cmpsim.New(shared, prof, 1, spec); return err }},
			{"Private-L2", private.CheckSlice(spec), func() error { _, err := cmpsim.New(private, prof, 1, spec); return err }},
			{"protocol", protocol.CheckSlice(spec), func() error { _, err := coherence.New(protocol, prof, 1, spec); return err }},
		} {
			newErr := sim.build()
			if (sim.check == nil) != (newErr == nil) || (newErr != nil && newErr.Error() != sim.check.Error()) {
				t.Errorf("%s on %s: CheckSlice = %v, New = %v", name, sim.label, sim.check, newErr)
			}
			if newErr != nil {
				refused++
			}
		}
	}
	if refused == 0 {
		t.Error("no registered organization is refused anywhere: the table checks nothing")
	}

	// dup-tag-2x512 mirrors Shared-L2's 512x2 L1s, so only Private-L2
	// refuses it: fig9 and fig12 must check it before simulating their
	// Shared-L2 tables. The protocol simulator refuses every dup-tag
	// slice, and formats' Shared-L2 refuses one narrower than its L1s.
	for id, name := range map[string]string{
		"fig9":    "dup-tag-2x512",
		"fig12":   "dup-tag-2x512",
		"formats": "dup-tag-1x512",
		"latency": "dup-tag-16x1024",
	} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		ts, err := e.Run(Options{Scale: Quick, Orgs: []string{"cuckoo-4x512", name}})
		if err == nil || ts != nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s -dir cuckoo-4x512,%s: tables %v, err %v; want the refusal", id, name, ts, err)
		}
		// One simulated point takes seconds; a refusal takes microseconds.
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s took %v to refuse %s: it simulated first", id, d, name)
		}
	}
}

// TestOrgsOverrideFig9: the -dir override reaches the fig9 provisioning
// sweep — the lineup is exactly the named organizations, with the
// provisioning factor derived from each built slice's capacity (and
// "unbounded" for the ideal reference).
func TestOrgsOverrideFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	orgs := []string{"cuckoo-4x1024", "ideal"}
	ts := runOpts(t, "fig9", Options{Scale: Quick, Orgs: orgs})
	if len(ts) != 2 {
		t.Fatalf("fig9 tables = %d", len(ts))
	}
	for _, tb := range ts {
		if tb.NumRows() != len(orgs) {
			t.Fatalf("%s: rows = %d, want %d", tb.Title, tb.NumRows(), len(orgs))
		}
		for r, name := range orgs {
			if tb.Cell(r, 0) != name {
				t.Errorf("%s: row %d label = %q, want %q", tb.Title, r, tb.Cell(r, 0), name)
			}
		}
		if got := tb.Cell(1, 1); got != "unbounded" {
			t.Errorf("%s: ideal provisioning cell = %q, want unbounded", tb.Title, got)
		}
		if tb.Cell(1, 3) != "0" {
			t.Errorf("%s: ideal forced invalidations = %q, want 0", tb.Title, tb.Cell(1, 3))
		}
	}
}

// TestOrgsOverrideFormats: the -dir override reaches the sharer-format
// experiment — the four formats sweep over each named unsharded cuckoo
// organization; ineligible names are skipped with a note, not run.
func TestOrgsOverrideFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	ts := runOpts(t, "formats", Options{Scale: Quick, Orgs: []string{"cuckoo-4x512", "sharded-2(cuckoo-4x512)"}})
	tb := ts[0]
	if got := tb.Headers()[0]; got != "Organization" {
		t.Fatalf("override table leads with %q, want Organization", got)
	}
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 (one eligible org x 4 formats)", tb.NumRows())
	}
	for r := 0; r < tb.NumRows(); r++ {
		if tb.Cell(r, 0) != "cuckoo-4x512" {
			t.Errorf("row %d org = %q", r, tb.Cell(r, 0))
		}
	}
}

// TestResizeQuick: the online-resize experiment runs all three phases,
// completes the migration it starts (the footnote records 1/1), and
// reports live throughput for the non-resizing shards in every phase.
func TestResizeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput experiment")
	}
	ts := runExp(t, "resize")
	tb := ts[0]
	if tb.NumRows() != 3 {
		t.Fatalf("resize rows = %d, want 3 (before/during/after)", tb.NumRows())
	}
	for r, phase := range []string{"before", "during", "after"} {
		if tb.Cell(r, 0) != phase {
			t.Errorf("row %d phase = %q, want %q", r, tb.Cell(r, 0), phase)
		}
		if v := parseFloat(t, tb.Cell(r, 3)); v <= 0 {
			t.Errorf("%s: non-resizing shards report %v kacc/s", phase, v)
		}
	}
	if v := parseFloat(t, tb.Cell(1, 4)); v <= 0 {
		t.Error("during phase migrated no entries")
	}
	body := tb.String()
	if !strings.Contains(body, "started/completed: 1/1") {
		t.Errorf("resize table does not record a completed migration:\n%s", body)
	}
	if !strings.Contains(body, "forced evictions during migration: 0") {
		t.Errorf("resize table records lost entries:\n%s", body)
	}
}

func TestDegradeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput experiment")
	}
	ts := runExp(t, "degrade")
	tb := ts[0]
	if tb.NumRows() != 3 {
		t.Fatalf("degrade rows = %d, want 3 (healthy/stalled/recovered)", tb.NumRows())
	}
	for r, phase := range []string{"healthy", "stalled", "recovered"} {
		if tb.Cell(r, 0) != phase {
			t.Errorf("row %d phase = %q, want %q", r, tb.Cell(r, 0), phase)
		}
		if v := parseFloat(t, tb.Cell(r, 2)); v <= 0 {
			t.Errorf("%s: non-faulted shards report %v kacc/s", phase, v)
		}
	}
	if v := parseFloat(t, tb.Cell(0, 4)); v != 0 {
		t.Errorf("healthy phase rejected %v batches, want 0", v)
	}
	if v := parseFloat(t, tb.Cell(1, 4)); v <= 0 {
		t.Error("stalled phase rejected no batches — the stall did not bite")
	}
	body := tb.String()
	if !strings.Contains(body, "degraded=true drainer0.stalled=true") {
		t.Errorf("degrade table does not record the degraded health transition:\n%s", body)
	}
	if !strings.Contains(body, "after release: degraded=false") {
		t.Errorf("degrade table does not record health recovery:\n%s", body)
	}
	if strings.Contains(body, "WARNING") {
		t.Errorf("degrade table carries a health-tracking warning:\n%s", body)
	}
	if !strings.Contains(body, "erred accesses: 0, contained panics: 0") {
		t.Errorf("degrade run erred or contained a panic — a stall must not corrupt:\n%s", body)
	}
}

// TestSaturateQuick: the QoS saturation experiment sweeps the flood
// levels, sheds the background class at overload while the foreground
// is rejected zero times at every level, and its no-QoS control shows
// the classless client shedding instead — with no WARNING note, i.e.
// both shapes actually appeared on this host.
func TestSaturateQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput experiment")
	}
	ts := runExp(t, "saturate")
	if len(ts) != 2 {
		t.Fatalf("saturate tables = %d, want sweep + control", len(ts))
	}
	tb := ts[0]
	if tb.NumRows() < 3 {
		t.Fatalf("sweep rows = %d, want at least baseline + 2 flood levels", tb.NumRows())
	}
	if tb.Cell(0, 0) != "0" {
		t.Fatalf("first sweep row is %q, want the uncontended baseline", tb.Cell(0, 0))
	}
	for r := 0; r < tb.NumRows(); r++ {
		if v := parseFloat(t, tb.Cell(r, 6)); v != 0 {
			t.Errorf("level %s: foreground rejected %v batches, want 0 at every level", tb.Cell(r, 0), v)
		}
		if v := parseFloat(t, tb.Cell(r, 1)); v <= 0 {
			t.Errorf("level %s: zero throughput", tb.Cell(r, 0))
		}
	}
	last := tb.NumRows() - 1
	if v := parseFloat(t, tb.Cell(last, 7)); v <= 0 {
		t.Error("top flood level shed no background batches — the sweep did not saturate")
	}
	body := tb.String()
	if !strings.Contains(body, "background sheds first") {
		t.Errorf("sweep table does not record the shed order:\n%s", body)
	}
	if strings.Contains(body, "WARNING") {
		t.Errorf("sweep table carries a saturation warning:\n%s", body)
	}

	ctrl := ts[1]
	if ctrl.NumRows() != 2 {
		t.Fatalf("control rows = %d, want QoS + no-QoS", ctrl.NumRows())
	}
	if v := parseFloat(t, ctrl.Cell(0, 2)); v != 0 {
		t.Errorf("QoS control row: client rejected %v batches, want 0", v)
	}
	qosDone := parseFloat(t, ctrl.Cell(0, 1))
	noQoSDone := parseFloat(t, ctrl.Cell(1, 1))
	if noQoSDone >= qosDone {
		t.Errorf("classless client completed %v >= QoS client's %v — the control shows no separation benefit", noQoSDone, qosDone)
	}
	cbody := ctrl.String()
	if !strings.Contains(cbody, "class separation at work") {
		t.Errorf("control table does not record the separation verdict:\n%s", cbody)
	}
	if strings.Contains(cbody, "WARNING") {
		t.Errorf("control table carries a warning:\n%s", cbody)
	}
}
