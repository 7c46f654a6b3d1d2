// Package exp is the experiment harness: every table and figure of the
// paper's evaluation (plus the ablations DESIGN.md calls out) is a named,
// runnable experiment that prints the rows or series the paper reports.
//
// Experiments are exposed three ways: through cmd/cuckoodir (`run <id>`),
// through the root-level benchmarks (one per experiment), and through the
// public cuckoodir package. EXPERIMENTS.md records one full run together
// with the paper-vs-measured comparison.
package exp

import (
	"fmt"

	"cuckoodir/internal/cmpsim"
	"cuckoodir/internal/directory"
	"cuckoodir/internal/stats"
	"cuckoodir/internal/workload"
)

// Scale selects how much simulation an experiment runs.
type Scale int

// Scales.
const (
	// Quick runs shortened measurements — minutes for the whole suite,
	// same qualitative results. The default for tests and benchmarks.
	Quick Scale = iota
	// Full runs the paper-scale measurements recorded in EXPERIMENTS.md.
	Full
)

// String names the scale.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Options parameterize an experiment run.
type Options struct {
	Scale Scale
	// Seed makes runs reproducible; the default 0 is a valid seed.
	Seed uint64
	// Orgs, when non-empty, overrides the directory-organization lineup
	// of experiments that sweep organizations: fig9 (provisioning
	// factors computed from each org's slice capacity), fig12, formats
	// (the sharer-format sweep runs over each named unsharded cuckoo
	// org) and latency; others ignore it. Each entry is a registry name
	// — registered, parametric "org-WxS", or "sharded-N(...)" —
	// resolved through internal/directory; the swept lineup is exactly
	// this list, in order. The CLI populates it from `run -dir a,b,c`.
	Orgs []string
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the short name used by the CLI and benchmarks ("fig7").
	ID string
	// Title is the paper artifact it regenerates.
	Title string
	// Expect summarizes what the paper's version of the artifact shows —
	// the shape a successful reproduction must match.
	Expect string
	// Run executes the experiment and returns its tables, or, before it
	// simulates anything, an error for an Options.Orgs name it refuses.
	Run func(o Options) ([]*stats.Table, error)
}

// All returns the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		table1Exp(),
		table2Exp(),
		fig4Exp(),
		fig7Exp(),
		fig8Exp(),
		fig9Exp(),
		fig10Exp(),
		fig11Exp(),
		fig12Exp(),
		fig13Exp(),
		mixExp(),
		hashesExp(),
		ablationExp(),
		formatsExp(),
		analyticExp(),
		latencyExp(),
		replayThroughputExp(),
		resizeExp(),
		degradeExp(),
		saturateExp(),
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (see `list`)", id)
}

// IDs returns all experiment ids in order.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// accessBudget returns (warm, measure) access counts for a configuration
// at a scale. Warm-up fills the caches and reaches steady-state directory
// occupancy (mirroring the paper's checkpoint warming); only the
// measurement window contributes to statistics.
func accessBudget(kind cmpsim.Kind, s Scale) (warm, measure int) {
	switch {
	case kind == cmpsim.SharedL2 && s == Full:
		return 3_000_000, 2_000_000
	case kind == cmpsim.SharedL2:
		return 1_200_000, 600_000
	case s == Full:
		return 6_000_000, 3_000_000
	default:
		return 2_500_000, 1_000_000
	}
}

// runSystem builds, warms and measures one system. orgOverrides has
// checked every Options.Orgs spec against the configuration, so a spec
// New refuses is a broken built-in lineup, and panics.
func runSystem(cfg cmpsim.Config, prof workload.Profile, o Options, slice directory.Spec) *cmpsim.System {
	warm, measure := accessBudget(cfg.Kind, o.Scale)
	sys, err := cmpsim.New(cfg, prof, o.Seed+1, slice)
	if err != nil {
		panic(err)
	}
	sys.Run(warm)
	sys.ResetStats()
	sys.Run(measure)
	return sys
}

// suiteProfiles returns the workloads an experiment sweeps: the full
// nine-workload suite at Full scale, a representative subset (one per
// suite class) at Quick scale.
func suiteProfiles(s Scale) []workload.Profile {
	all := workload.Profiles()
	if s == Full {
		return all
	}
	var out []workload.Profile
	for _, p := range all {
		switch p.Name {
		case "oracle", "qry2", "apache", "ocean":
			out = append(out, p)
		}
	}
	return out
}

// pctCell formats a rate as a percentage cell with enough precision for
// the log-scale figures (Figure 12 spans 0.01% .. 16%).
func pctCell(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0.0001:
		return fmt.Sprintf("%.4f%%", v*100)
	default:
		return fmt.Sprintf("%.3f%%", v*100)
	}
}
