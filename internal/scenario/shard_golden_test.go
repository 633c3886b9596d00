package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"autocomp/internal/policy"
)

// TestScenarioGoldenTracesShardedDecide is the end-to-end parity lock for
// the sharded decide plane: shipped scenarios rerun with
// execution.decide_shards: 4 must produce traces byte-identical to the
// committed goldens their serial runs wrote. The subset covers the
// default execution plane (steady-state), a mid-run policy reload
// (policy-reload), the incremental observation plane with table drops
// (table-drops-incremental), whose retained candidate pool is
// partitioned per decide shard, and a reload from full scan into that
// plane on a burst-and-drop day (reload-incremental).
func TestScenarioGoldenTracesShardedDecide(t *testing.T) {
	for _, name := range []string{"steady-state", "policy-reload", "table-drops-incremental", "reload-incremental"} {
		t.Run(name, func(t *testing.T) {
			s, err := LoadFile(filepath.Join(scenariosDir(), name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			// Materialize the default policy when the scenario relies on
			// it, then shard the decide plane without touching anything
			// else. The chosen scenarios all carry an execution section
			// (directly or via the default), so this flips no other plane.
			if s.Policy == nil {
				s.Policy = policy.DefaultSpec()
			}
			if s.Policy.Execution == nil {
				t.Fatalf("scenario %s has no execution section; pick one that does", name)
			}
			s.Policy.Execution.DecideShards = 4
			for _, r := range s.Reloads {
				if r.Policy != nil && r.Policy.Execution != nil {
					r.Policy.Execution.DecideShards = 4
				}
			}
			tr, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(goldenPath(name))
			if err != nil {
				t.Fatalf("missing golden trace (regenerate with -update): %v", err)
			}
			if diff := DiffTraces(want, tr.Marshal()); diff != nil {
				t.Fatalf("sharded decide diverged from serial golden %s:\n%s",
					goldenPath(name), joinLines(diff))
			}
		})
	}
}
