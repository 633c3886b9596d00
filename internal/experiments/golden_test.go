package experiments

// The quick-render regression harness: every experiment whose quick
// run prints no host timing is rendered at the test seed and
// byte-compared against its committed golden under testdata/quick.
// persist, shard and tune print host timings and are left out.
// Regenerate after an intentional behaviour change with:
//
//	go test ./internal/experiments -run TestQuickRendersMatchGoldens -update
//
// and review the golden diff like any other code change: a refactor
// that moves no decision leaves every file untouched.

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the quick-render goldens")

// deterministicQuick lists the experiments whose quick render is the
// same bytes run to run.
var deterministicQuick = []string{
	"est", "fig1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9",
	"fig10a", "fig10b", "fig10c", "fig11a", "fig11b", "table1",
	"incr", "sched", "maint",
}

func TestQuickRendersMatchGoldens(t *testing.T) {
	for _, id := range deterministicQuick {
		t.Run(id, func(t *testing.T) {
			got := runQuick(t, id).Render()
			path := filepath.Join("testdata", "quick", id+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Fatalf("%s render differs from %s\ngot:\n%s\nwant:\n%s", id, path, got, want)
			}
		})
	}
}
