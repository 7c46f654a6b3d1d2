package exp

import (
	"fmt"

	"cuckoodir/internal/directory"
)

// namedSpec is one entry of an organization lineup: the registry name
// (used as the row/column label) and its resolved spec.
type namedSpec struct {
	name string
	spec directory.Spec
}

// orgOverrides resolves Options.Orgs into an organization lineup bound
// to numCaches tracked caches, or nil when no override was requested —
// the hook that lets `cuckoodir run -dir a,b,c` sweep arbitrary
// registered organizations through an experiment without code changes.
// Experiments have no error path, so unresolvable names panic (the CLI
// validates names before running).
func orgOverrides(o Options, numCaches int) []namedSpec {
	if len(o.Orgs) == 0 {
		return nil
	}
	out := make([]namedSpec, 0, len(o.Orgs))
	for _, name := range o.Orgs {
		spec, ok := directory.LookupSpec(name)
		if !ok {
			panic(fmt.Sprintf("exp: unknown organization %q in Options.Orgs", name))
		}
		if err := spec.WithCaches(numCaches).Validate(); err != nil {
			panic(fmt.Sprintf("exp: Options.Orgs %q: %v", name, err))
		}
		out = append(out, namedSpec{name: name, spec: spec})
	}
	return out
}
