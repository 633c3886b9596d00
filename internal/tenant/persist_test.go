package tenant

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/telemetry"
)

func persistCfg() Config {
	return Config{
		Name:                 "alpha",
		Seed:                 5,
		Days:                 10,
		InitialTables:        80,
		Databases:            4,
		WriterCommitsPerHour: 20,
	}
}

func durableSpec(root string) *policy.Spec {
	sp := policy.DefaultSpec()
	sp.Storage = &policy.StorageSpec{Backend: policy.StorageBackendLog, Root: root}
	return sp
}

func stepDays(t *testing.T, tn *Tenant, days int) {
	t.Helper()
	for i := 0; i < days; i++ {
		if err := tn.StepCycle(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPersistTenantRestartParity is the daemon-side recovery check: a
// tenant on the log backend, killed (abandoned) after 6 of 10 cycles
// and rebuilt from its persisted state, finishes the run with a fleet
// byte-identical to a tenant that ran all 10 cycles uninterrupted.
func TestPersistTenantRestartParity(t *testing.T) {
	cfg := persistCfg()

	var wantIDs, gotIDs []string
	clean, err := New(cfg, policy.DefaultSpec(), selectedIDs(&wantIDs))
	if err != nil {
		t.Fatal(err)
	}
	stepDays(t, clean, cfg.Days)

	root := t.TempDir()
	first, err := New(cfg, durableSpec(root), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepDays(t, first, 6)
	// The kill: the process image is gone; only the store survives.

	second, err := New(cfg, durableSpec(root), selectedIDs(&gotIDs))
	if err != nil {
		t.Fatal(err)
	}
	if second.Day() != 6 {
		t.Fatalf("restored tenant at day %d, want 6", second.Day())
	}
	stepDays(t, second, cfg.Days-6)

	want, got := clean.lake.Fleet().Snapshot(), second.lake.Fleet().Snapshot()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored tenant's fleet diverged from the uninterrupted run\nwant RNG %+v day %d\ngot  RNG %+v day %d",
			want.RNG, want.Day, got.RNG, got.Day)
	}

	// The last cycle's decision must match too (same funnel, same
	// selections) — compare the final reports' selected candidate IDs.
	if len(wantIDs) == 0 || !reflect.DeepEqual(wantIDs, gotIDs) {
		t.Fatalf("final cycle selections diverged:\nwant %v\ngot  %v", wantIDs, gotIDs)
	}
}

// selectedIDs returns options whose OnCycle hook keeps the selected
// candidate IDs of the tenant's latest cycle in *ids.
func selectedIDs(ids *[]string) Options {
	return Options{OnCycle: func(_ telemetry.CycleEvent, rep *core.Report) {
		out := make([]string, 0, len(rep.Decision.Selected))
		for _, c := range rep.Decision.Selected {
			out = append(out, c.ID())
		}
		*ids = out
	}}
}

// TestPersistTenantTornStateFile pins crash atomicity at the tenant
// layer: a half-written state file cannot exist (atomic rename), but a
// corrupted one must fail loudly rather than silently cold-starting.
func TestPersistTenantTornStateFile(t *testing.T) {
	root := t.TempDir()
	first, err := New(persistCfg(), durableSpec(root), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepDays(t, first, 3)

	path := filepath.Join(root, "tenants", "alpha", "fleet.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(persistCfg(), durableSpec(root), Options{}); err == nil || !strings.Contains(err.Error(), "restore") {
		t.Fatalf("New on a corrupt state file = %v, want restore error", err)
	}
}

// TestPersistTenantConfigMismatch rejects restoring under a changed
// fleet topology instead of silently starting over.
func TestPersistTenantConfigMismatch(t *testing.T) {
	root := t.TempDir()
	first, err := New(persistCfg(), durableSpec(root), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepDays(t, first, 2)

	cfg := persistCfg()
	cfg.InitialTables = 200
	if _, err := New(cfg, durableSpec(root), Options{}); err == nil || !strings.Contains(err.Error(), "different fleet config") {
		t.Fatalf("New with changed topology = %v, want config-mismatch error", err)
	}
}

// TestPersistTenantStateFileShape pins the on-disk schema the smoke
// script and operators rely on, byte for byte.
func TestPersistTenantStateFileShape(t *testing.T) {
	root := t.TempDir()
	tn, err := New(persistCfg(), durableSpec(root), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepDays(t, tn, 1)
	b, err := os.ReadFile(filepath.Join(root, "tenants", "alpha", "fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Name  string       `json:"name"`
		Day   int          `json:"day"`
		Fleet *fleet.State `json:"fleet"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Name != "alpha" || st.Day != 1 || st.Fleet == nil || len(st.Fleet.Tables) == 0 {
		t.Fatalf("state file shape: name=%q day=%d fleet=%v", st.Name, st.Day, st.Fleet != nil)
	}
	// The file is streamed by hand; its bytes must still be exactly
	// encoding/json's rendering of what they decode to.
	if re, err := json.Marshal(&st); err != nil || !bytes.Equal(re, b) {
		t.Fatalf("state file (%d bytes) is not json.Marshal of its decoded value (%d bytes, %v)", len(b), len(re), err)
	}
}
