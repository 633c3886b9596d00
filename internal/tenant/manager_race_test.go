package tenant

import (
	"encoding/json"
	"testing"
	"time"

	"autocomp/internal/policy"
	"autocomp/internal/telemetry"
)

// soloEvents runs a tenant's cycles alone and returns its trace events.
func soloEvents(t *testing.T, cfg Config, spec *policy.Spec) []telemetry.CycleEvent {
	t.Helper()
	tn, err := New(cfg, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= cfg.Days; d++ {
		if err := tn.StepCycle(); err != nil {
			t.Fatalf("solo %s day %d: %v", cfg.Name, d, err)
		}
	}
	return tn.Tracer().Recent(cfg.Days)
}

// TestConcurrentTenantsAreIsolated is the manager's race test (run
// with -race in CI): two tenants with structurally different policy
// specs run concurrently, and each must produce a per-cycle trace
// byte-identical to running alone — neither tenant's RNG streams,
// pipeline state, or telemetry perturbs the other. Per-tenant labeled
// counters must likewise account each lake separately.
func TestConcurrentTenantsAreIsolated(t *testing.T) {
	cfgA := Config{Name: "iso-a", Seed: 21, Days: 5, InitialTables: 40}
	cfgB := Config{Name: "iso-b", Seed: 22, Days: 7, InitialTables: 25}
	specA := policy.DefaultSpec()
	specB := alternateSpec()

	// Ground truth: each tenant alone on a fresh lake. Different names
	// keep the labeled metrics of the solo runs out of the way.
	soloA := soloEvents(t, Config{Name: "solo-a", Seed: cfgA.Seed, Days: cfgA.Days, InitialTables: cfgA.InitialTables}, specA)
	soloB := soloEvents(t, Config{Name: "solo-b", Seed: cfgB.Seed, Days: cfgB.Days, InitialTables: cfgB.InitialTables}, specB)

	mgr := NewManager()
	a, err := mgr.Create(cfgA, specA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Create(cfgB, specB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(a); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(b); err != nil {
		t.Fatal(err)
	}
	for _, tn := range []*Tenant{a, b} {
		select {
		case <-tn.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("tenant %s never finished", tn.Name())
		}
		if err := tn.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.Shutdown(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// RNG / trace isolation: concurrent == solo, event for event. The
	// Tenant label differs by construction (solo runs used other names),
	// so clear it before comparing; everything else must be identical.
	gotA := a.Tracer().Recent(cfgA.Days)
	gotB := b.Tracer().Recent(cfgB.Days)
	compareEventStreams(t, "A", stripTenant(gotA), stripTenant(soloA))
	compareEventStreams(t, "B", stripTenant(gotB), stripTenant(soloB))

	// Label isolation: each tenant's cycles land only on its own label.
	if v, ok := telemetry.Default().Value("autocomp_tenant_cycles_total", "iso-a"); !ok || v != float64(cfgA.Days) {
		t.Fatalf("iso-a cycles metric = %v (ok=%v), want %d", v, ok, cfgA.Days)
	}
	if v, ok := telemetry.Default().Value("autocomp_tenant_cycles_total", "iso-b"); !ok || v != float64(cfgB.Days) {
		t.Fatalf("iso-b cycles metric = %v (ok=%v), want %d", v, ok, cfgB.Days)
	}
	if v, ok := telemetry.Default().Value("autocomp_tenant_day", "iso-a"); !ok || v != float64(cfgA.Days) {
		t.Fatalf("iso-a day gauge = %v (ok=%v), want %d", v, ok, cfgA.Days)
	}

	// Trace events carry their tenant's name, nobody else's.
	for _, ev := range gotA {
		if ev.Tenant != "iso-a" {
			t.Fatalf("tenant A event labeled %q", ev.Tenant)
		}
	}
	for _, ev := range gotB {
		if ev.Tenant != "iso-b" {
			t.Fatalf("tenant B event labeled %q", ev.Tenant)
		}
	}
}

func stripTenant(evs []telemetry.CycleEvent) []telemetry.CycleEvent {
	out := make([]telemetry.CycleEvent, len(evs))
	for i, ev := range evs {
		ev.Tenant = ""
		out[i] = ev
	}
	return out
}

// compareEventStreams asserts two normalized traces are identical,
// comparing JSON so a mismatch prints the exact field.
func compareEventStreams(t *testing.T, label string, got, want []telemetry.CycleEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("tenant %s: %d events, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Fatalf("tenant %s day %d diverged under concurrency:\ngot:  %s\nwant: %s", label, i+1, g, w)
		}
	}
}
