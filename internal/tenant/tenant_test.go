package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
	"autocomp/internal/telemetry"

	"autocomp/internal/fleet"
)

const (
	testSeed   = 11
	testTables = 60
	testDays   = 6
)

// newTestTenant builds a tenant that records decision fingerprints.
func newTestTenant(t *testing.T, name string, spec *policy.Spec, opts Options) (*Tenant, *[]string) {
	t.Helper()
	prints := &[]string{}
	base := opts.OnCycle
	opts.OnCycle = func(ev telemetry.CycleEvent, rep *core.Report) {
		*prints = append(*prints, testkit.DecisionFingerprint(rep.Decision))
		if base != nil {
			base(ev, rep)
		}
	}
	tn, err := New(Config{
		Name:          name,
		Seed:          testSeed,
		Days:          testDays,
		InitialTables: testTables,
	}, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tn, prints
}

// baselineFingerprints ages the same seed/topology with a hand-wired
// fleet + SpecService loop — the exact pipeline the pre-tenant daemon
// ran — and returns per-cycle decision fingerprints.
func baselineFingerprints(t *testing.T, spec *policy.Spec, days int) []string {
	t.Helper()
	f := fleet.New(testkit.FleetConfig(testSeed, testTables), sim.NewClock())
	svc, err := f.ServiceFromSpec(spec.Clone(), testkit.Model(), fleet.SpecRunOptions{
		Tracer: telemetry.NewTracer(days + 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	var prints []string
	for d := 1; d <= days; d++ {
		f.AdvanceDay()
		cyc, err := svc.RunCycle()
		if err != nil {
			t.Fatalf("baseline day %d: %v", d, err)
		}
		prints = append(prints, testkit.DecisionFingerprint(cyc.Report.Decision))
	}
	return prints
}

// TestTenantMatchesHandWiredPipeline pins the management plane's
// central refactor guarantee: wrapping a lake in a Tenant changes
// nothing about its decisions. Every cycle's fingerprint must be
// byte-identical to the hand-wired fleet loop at the same seed.
func TestTenantMatchesHandWiredPipeline(t *testing.T) {
	spec := policy.DefaultSpec()
	want := baselineFingerprints(t, spec, testDays)

	tn, prints := newTestTenant(t, "parity", spec, Options{})
	for d := 1; d <= testDays; d++ {
		if err := tn.StepCycle(); err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
	}
	if len(*prints) != len(want) {
		t.Fatalf("tenant ran %d cycles, want %d", len(*prints), len(want))
	}
	for i := range want {
		if (*prints)[i] != want[i] {
			t.Fatalf("day %d: tenant decision diverged from hand-wired pipeline:\ntenant:\n%s\nbaseline:\n%s",
				i+1, (*prints)[i], want[i])
		}
	}
}

// alternateSpec is a structurally different valid policy (data-only,
// top-k selection, no execution plane) used as the reload target.
func alternateSpec() *policy.Spec {
	sp := policy.DefaultDataSpec(false)
	sp.Name = "alternate"
	sp.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(5)}}
	sp.Execution = nil
	return sp
}

// TestPushPolicyMatchesWatcherHotReload is the policy-over-the-wire
// parity test: a spec pushed through PushPolicy must produce decisions
// byte-identical to the same spec hot-reloaded through a policy.Watcher
// file edit, cycle for cycle, on identically seeded lakes.
func TestPushPolicyMatchesWatcherHotReload(t *testing.T) {
	const switchAfter = 3
	next := alternateSpec()

	// Lake A: file watcher, edited between day 3 and day 4.
	path := filepath.Join(t.TempDir(), "policy.json")
	writeSpecFile(t, path, policy.DefaultSpec())
	watcher, initial, err := policy.NewWatcher(path, policy.StubEnv())
	if err != nil {
		t.Fatal(err)
	}
	watched, watchedPrints := newTestTenant(t, "watched", initial, Options{
		PollPolicy: func() (*policy.Spec, bool, error) { return watcher.Poll() },
	})

	// Lake B: same seed, same initial spec, API push instead of file.
	pushed, pushedPrints := newTestTenant(t, "pushed", initial, Options{})

	for d := 1; d <= testDays; d++ {
		if d == switchAfter+1 {
			writeSpecFile(t, path, next)
			diff, err := pushed.PushPolicy(next)
			if err != nil {
				t.Fatalf("push: %v", err)
			}
			if len(diff) == 0 {
				t.Fatal("push reported no diff for a different spec")
			}
		}
		if err := watched.StepCycle(); err != nil {
			t.Fatalf("watched day %d: %v", d, err)
		}
		if err := pushed.StepCycle(); err != nil {
			t.Fatalf("pushed day %d: %v", d, err)
		}
	}

	if len(*watchedPrints) != testDays || len(*pushedPrints) != testDays {
		t.Fatalf("cycle counts: watched=%d pushed=%d, want %d", len(*watchedPrints), len(*pushedPrints), testDays)
	}
	for i := range *watchedPrints {
		if (*watchedPrints)[i] != (*pushedPrints)[i] {
			t.Fatalf("day %d: pushed decisions diverged from watcher hot reload:\nwatcher:\n%s\npush:\n%s",
				i+1, (*watchedPrints)[i], (*pushedPrints)[i])
		}
	}
	if _, name, _ := pushed.PolicyInfo(); name != "alternate" {
		t.Fatalf("pushed tenant runs %q after swap, want alternate", name)
	}
}

// TestPushPolicyRejectedKeepsOldSpec pins the rejected-edit contract:
// an invalid push returns the compile errors synchronously and the
// running pipeline keeps deciding exactly as if nothing happened.
func TestPushPolicyRejectedKeepsOldSpec(t *testing.T) {
	spec := policy.DefaultSpec()
	want := baselineFingerprints(t, spec, testDays)

	tn, prints := newTestTenant(t, "rejecting", spec, Options{})
	for d := 1; d <= testDays; d++ {
		if d == 3 {
			bad := &policy.Spec{
				Name:       "bad",
				Generators: []policy.Component{{Name: "no-such-generator"}},
			}
			_, err := tn.PushPolicy(bad)
			if err == nil {
				t.Fatal("invalid push accepted")
			}
			if !strings.Contains(err.Error(), "no-such-generator") {
				t.Fatalf("push error does not carry the compile problem: %v", err)
			}
		}
		if err := tn.StepCycle(); err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
	}
	for i := range want {
		if (*prints)[i] != want[i] {
			t.Fatalf("day %d: decisions changed after a rejected push", i+1)
		}
	}
	if _, name, _ := tn.PolicyInfo(); name != spec.Name {
		t.Fatalf("policy swapped to %q after rejected push", name)
	}
}

// TestManagerLifecycle drives created → running → paused → resumed →
// stopped through the manager and checks the terminal bookkeeping.
func TestManagerLifecycle(t *testing.T) {
	mgr := NewManager()
	tn, err := mgr.Create(Config{Name: "lc", Seed: 3, Days: 200, InitialTables: 10}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.State(); got != StateCreated {
		t.Fatalf("state after create = %v", got)
	}
	if err := mgr.Start(tn); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(tn); err == nil {
		t.Fatal("double start accepted")
	}
	// Pause, confirm the day counter stops advancing.
	waitFor(t, func() bool { return tn.Day() >= 2 })
	if err := tn.Pause(); err != nil {
		t.Fatal(err)
	}
	day := tn.Day()
	time.Sleep(20 * time.Millisecond)
	if d2 := tn.Day(); d2 > day+1 {
		t.Fatalf("paused tenant advanced from day %d to %d", day, d2)
	}
	if err := tn.Resume(); err != nil {
		t.Fatal(err)
	}
	tn.Stop()
	select {
	case <-tn.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("stop never completed")
	}
	if got := tn.State(); got != StateStopped {
		t.Fatalf("state after stop = %v", got)
	}
	if err := tn.StepCycle(); err == nil {
		t.Fatal("stopped tenant accepted a cycle")
	}
}

// TestManagerRunsToCompletion checks a managed tenant stops by itself
// after its configured days.
func TestManagerRunsToCompletion(t *testing.T) {
	mgr := NewManager()
	tn, err := mgr.Create(Config{Name: "short", Seed: 5, Days: 3, InitialTables: 10}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(tn); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tn.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("run never completed")
	}
	if tn.Day() != 3 {
		t.Fatalf("completed at day %d, want 3", tn.Day())
	}
	if err := tn.Err(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestManagerDuplicateName checks name uniqueness.
func TestManagerDuplicateName(t *testing.T) {
	mgr := NewManager()
	if _, err := mgr.Create(Config{Name: "dup", InitialTables: 5}, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(Config{Name: "dup", InitialTables: 5}, nil, Options{}); err == nil {
		t.Fatal("duplicate tenant name accepted")
	}
}

// TestDuplicateCreateKeepsGauges pins the tenant gauges to registered
// tenants: a create rejected for its taken name neither counts in
// autocomp_tenants nor resets the running tenant's state gauge.
func TestDuplicateCreateKeepsGauges(t *testing.T) {
	mgr := NewManager()
	tn, err := mgr.Create(Config{Name: "gauged", Days: 1000, InitialTables: 5}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(tn); err != nil {
		t.Fatal(err)
	}
	defer func() {
		tn.Stop()
		<-tn.Done()
	}()
	if err := tn.Pause(); err != nil {
		t.Fatal(err)
	}
	registered := mTenants.Value()
	if _, err := mgr.Create(Config{Name: "gauged", InitialTables: 5}, nil, Options{}); err == nil {
		t.Fatal("duplicate tenant name accepted")
	}
	if got := mTenants.Value(); got != registered {
		t.Fatalf("autocomp_tenants = %v after a rejected create, want %v", got, registered)
	}
	if got := mTenantState.With("gauged").Value(); got != float64(StatePaused) {
		t.Fatalf("autocomp_tenant_state{gauged} = %v after a rejected create, want %v (paused)", got, float64(StatePaused))
	}
}

// TestConfigValidation exercises Config.normalize.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}, nil, Options{}); err == nil {
		t.Fatal("nameless tenant accepted")
	}
	if _, err := New(Config{Name: "x", Days: -1}, nil, Options{}); err == nil {
		t.Fatal("negative days accepted")
	}
	if _, err := New(Config{Name: "x", DailyWriteProb: 2}, nil, Options{}); err == nil {
		t.Fatal("daily_write_prob > 1 accepted")
	}
	// One past the bound fails before any table is onboarded.
	over := fleet.MaxTables + 1
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Name: "x", InitialTables: over}, fmt.Sprintf("initial_tables must be at most %d, got %d", fleet.MaxTables, over)},
		{Config{Name: "x", TablesPerMonth: over}, fmt.Sprintf("tables_per_month must be at most %d, got %d", fleet.MaxTables, over)},
	} {
		if _, err := New(tc.cfg, nil, Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("New(%+v) = %v, want an error containing %q", tc.cfg, err, tc.want)
		}
	}
}

// TestStateJSONRoundTrip pins the wire form of lifecycle states.
func TestStateJSONRoundTrip(t *testing.T) {
	for _, st := range []State{StateCreated, StateRunning, StatePaused, StateStopped} {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back State
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != st {
			t.Fatalf("state %v round-tripped to %v", st, back)
		}
	}
	var bad State
	if err := json.Unmarshal([]byte(`"exploded"`), &bad); err == nil {
		t.Fatal("unknown state accepted")
	}
}

// writeSpecFile marshals a spec to path (atomically enough for the
// watcher's content-hash check).
func writeSpecFile(t *testing.T, path string, sp *policy.Spec) {
	t.Helper()
	b, err := sp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond for up to 30s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never reached")
}

// TestOnCycleEventParity pins OnCycle to the cycle's one record: the
// event a hook observes is the one the tenant's tracer stamped last,
// before and after a swap from the worker pool to the serial act phase.
func TestOnCycleEventParity(t *testing.T) {
	var tn *Tenant
	tn, _ = newTestTenant(t, "record", policy.DefaultSpec(), Options{
		OnCycle: func(ev telemetry.CycleEvent, _ *core.Report) {
			last, ok := tn.Tracer().Last()
			if !ok || !reflect.DeepEqual(ev, last) {
				t.Fatalf("day %d: OnCycle event differs from the tracer's last\nhook:   %+v\ntracer: %+v", ev.Day, ev, last)
			}
			if ev.Seq != tn.Tracer().Seq() || ev.Tenant != "record" {
				t.Fatalf("day %d: seq %d tenant %q, tracer at seq %d", ev.Day, ev.Seq, ev.Tenant, tn.Tracer().Seq())
			}
		},
	})
	for d := 1; d <= testDays; d++ {
		if d == testDays/2 {
			if _, err := tn.PushPolicy(alternateSpec()); err != nil {
				t.Fatal(err)
			}
		}
		if err := tn.StepCycle(); err != nil {
			t.Fatalf("day %d: %v", d, err)
		}
	}
	if st := tn.Status(); st.Cycles != testDays || st.LastCycle == nil || st.LastCycle.Exec.Workers != 0 {
		t.Fatalf("final snapshot: cycles=%d last=%+v, want %d serial cycles", st.Cycles, st.LastCycle, testDays)
	}
}

// TestTenantHoldsNoCycleBetweenCycles pins that between cycles a
// tenant holds its lake and nothing else: after StepCycle and two
// collections, no candidate of a full-scan cycle's selection is
// reachable.
func TestTenantHoldsNoCycleBetweenCycles(t *testing.T) {
	var freed chan struct{}
	tn, _ := newTestTenant(t, "heap", policy.DefaultSpec(), Options{
		OnCycle: func(_ telemetry.CycleEvent, rep *core.Report) {
			freed = make(chan struct{}, len(rep.Decision.Selected))
			for _, c := range rep.Decision.Selected {
				runtime.AddCleanup(c, func(ch chan struct{}) { ch <- struct{}{} }, freed)
			}
		},
	})
	if err := tn.StepCycle(); err != nil {
		t.Fatal(err)
	}
	selected := cap(freed)
	if selected == 0 {
		t.Fatal("the cycle selected nothing")
	}
	runtime.GC()
	runtime.GC()
	// A candidate's cleanup runs on the cleanup goroutine once a
	// collection has found the candidate unreachable.
	timeout := time.After(2 * time.Second)
	for n := 0; n < selected; n++ {
		select {
		case <-freed:
		case <-timeout:
			t.Fatalf("%d of the cycle's %d selected candidates are still reachable after the cycle", selected-n, selected)
		}
	}
	runtime.KeepAlive(tn)
}

func TestKeepNewestKeepsRunning(t *testing.T) {
	running := &Run{id: "running", done: make(chan struct{})}
	runs := []*Run{running}
	for range KeepRuns + 1 {
		r := &Run{done: make(chan struct{})}
		close(r.done)
		runs = append(runs, r)
	}
	oldestKept := runs[len(runs)-KeepRuns]
	kept := KeepNewest(runs, KeepRuns, (*Run).Done)
	if len(kept) != KeepRuns+1 || kept[0] != running || kept[1] != oldestKept {
		t.Fatalf("kept %d runs, want the running run and the newest %d finished", len(kept), KeepRuns)
	}
}
