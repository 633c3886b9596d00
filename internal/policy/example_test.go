package policy_test

import (
	"fmt"
	"path/filepath"

	"autocomp/internal/policy"
)

// Example_shippedSpecs compiles every policy spec shipped under
// examples/policies — the same files CI validates with
// `lakectl policy validate` — proving they parse, resolve every
// component, and pass weight/parameter validation.
func Example_shippedSpecs() {
	for _, name := range []string{"default.json", "data-only.json", "metadata-heavy.json", "incremental-fleet.json"} {
		spec, err := policy.LoadFile(filepath.Join("..", "..", "examples", "policies", name))
		if err != nil {
			fmt.Println(err)
			continue
		}
		comp, err := policy.Compile(spec, policy.StubEnv(), policy.Bindings{})
		if err != nil {
			fmt.Println(err)
			continue
		}
		planes := ""
		if comp.HasExecution {
			planes += " +execution"
		}
		if comp.Incremental {
			planes += " +incremental"
		}
		fmt.Printf("%s: %s%s\n", name, spec.Name, planes)
	}
	// Output:
	// default.json: default +execution
	// data-only.json: data-only +execution
	// metadata-heavy.json: metadata-heavy +execution
	// incremental-fleet.json: incremental-fleet +execution +incremental
}
