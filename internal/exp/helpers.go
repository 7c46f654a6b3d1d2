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

// orgOverrides resolves Options.Orgs into an organization lineup, or
// nil when no override was requested — the hook that lets `cuckoodir
// run -dir a,b,c` sweep arbitrary registered organizations through an
// experiment without code changes. A name that does not resolve, or
// that a check (the CheckSlice of each simulator configuration the
// experiment builds) refuses, is an error before anything simulates.
func orgOverrides(o Options, checks ...func(directory.Spec) error) ([]namedSpec, error) {
	if len(o.Orgs) == 0 {
		return nil, nil
	}
	out := make([]namedSpec, 0, len(o.Orgs))
	for _, name := range o.Orgs {
		spec, err := directory.LookupSpecErr(name)
		if err != nil {
			return nil, fmt.Errorf("exp: Options.Orgs: %w", err)
		}
		for _, check := range checks {
			if err := check(spec); err != nil {
				return nil, fmt.Errorf("exp: Options.Orgs %q: %w", name, err)
			}
		}
		out = append(out, namedSpec{name: name, spec: spec})
	}
	return out, nil
}
