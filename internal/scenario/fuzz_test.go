package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"autocomp/internal/fleet"
)

// FuzzScenarioSpec feeds arbitrary bytes through Parse and Validate,
// which must never panic, and requires a spec that validates to
// survive the on-disk round trip: it marshals, the bytes parse and
// validate again, and the re-parsed spec marshals to the same bytes.
// Seeded from the shipped scenarios plus specs at and one past
// fleet.MaxDays.
func FuzzScenarioSpec(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join(scenariosDir(), "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no shipped scenarios to seed from (err %v)", err)
	}
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, days := range []int{fleet.MaxDays, fleet.MaxDays + 1} {
		f.Add([]byte(fmt.Sprintf(`{"name": "long", "days": %d, "fleet": {"initial_tables": 1}}`, days)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Parse(b)
		if err != nil {
			return
		}
		if s.Validate() != nil {
			return
		}
		out, err := s.Marshal()
		if err != nil {
			t.Fatalf("valid spec does not marshal: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("marshaled spec does not parse: %v\n%s", err, out)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("marshaled spec no longer validates: %v\n%s", err, out)
		}
		out2, err := again.Marshal()
		if err != nil {
			t.Fatalf("reparsed spec does not marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("marshal is not stable across a parse:\n%s\nthen\n%s", out, out2)
		}
	})
}
