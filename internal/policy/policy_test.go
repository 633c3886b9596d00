package policy

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/core"
	"autocomp/internal/lst"
	"autocomp/internal/maintenance"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// --- Spec JSON round-trip ---

func TestSpecJSONRoundTrip(t *testing.T) {
	staleness := int64(2)
	orig := &Spec{
		Name:        "rt",
		Description: "round trip",
		Generators:  []Component{C("table-scope"), {Name: "snapshot-scope", Params: map[string]any{"window": "72h"}}},
		PreFilters:  []Component{C("not-intermediate")},
		StatsFilters: []Component{
			{Name: "min-small-files", Params: map[string]any{"min": float64(2)}},
		},
		TraitFilters: []Component{
			{Name: "max-trait", Params: map[string]any{"trait": "compute_cost_gbhr", "max": float64(500)}},
		},
		Traits: []Component{C("file_count_reduction"), C("compute_cost_gbhr")},
		Objectives: []ObjectiveSpec{
			{Trait: C("file_count_reduction"), Weight: 0.7},
			{Trait: C("compute_cost_gbhr"), Weight: 0.3},
		},
		Selector:    &Component{Name: "top-k", Params: map[string]any{"k": float64(10)}},
		Maintenance: &MaintenanceSpec{RetainSnapshots: 10, CheckpointEveryVersions: 50, MinManifestSurplus: 4},
		Execution: &ExecutionSpec{
			Workers: 8, Shards: 4, ShardBudgetGBHr: 1024,
			StalenessBound: &staleness, MaxAttempts: 6,
			RetryBase: Duration(15 * time.Second), RetryMax: Duration(4 * time.Minute),
			AgingRatePerHour: 2,
		},
		Trigger: &TriggerSpec{EveryCommits: 3, BytesWritten: 1 << 30, ReconcileEvery: 12},
		Databases: map[string]*Patch{
			"db1": {Maintenance: &MaintenanceSpec{RetainSnapshots: 5}},
		},
		Tables: map[string]*Patch{
			"db1.t1": {Trigger: &TriggerSpec{EveryCommits: 1}},
		},
	}
	// A copy without the execution section round-trips too: the serial
	// act loop's spec.
	serial := orig.Clone()
	serial.Execution = nil
	for _, spec := range []*Spec{orig, serial} {
		b, err := spec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip mismatch:\norig %+v\nback %+v\ndiff %v", spec, back, Diff(spec, back))
		}
		if d := Diff(spec, back); len(d) != 0 {
			t.Fatalf("diff of round-tripped spec = %v", d)
		}
		if err := Validate(back, StubEnv()); err != nil {
			t.Fatalf("round-tripped spec invalid: %v", err)
		}
	}
}

// TestParseRejectsScheduler pins that a spec naming the removed
// act-phase "scheduler" section fails to parse as an unknown field,
// with or without an execution section: both act paths run the
// selection in rank order.
func TestParseRejectsScheduler(t *testing.T) {
	for _, spec := range []string{
		`{"generators": ["table-scope"], "traits": ["file_count_reduction"], "threshold": {"trait": "file_count_reduction", "min": 1}, "scheduler": "tables-parallel"}`,
		`{"generators": ["table-scope"], "traits": ["file_count_reduction"], "threshold": {"trait": "file_count_reduction", "min": 1}, "scheduler": {"name": "sequential"}, "execution": {"workers": 2}}`,
	} {
		_, err := Parse([]byte(spec))
		if err == nil || !strings.Contains(err.Error(), `unknown field "scheduler"`) {
			t.Fatalf("spec %s: err = %v, want an unknown-field error naming scheduler", spec, err)
		}
	}
}

func TestComponentShorthand(t *testing.T) {
	s, err := Parse([]byte(`{
		"generators": ["table-scope"],
		"traits": ["file_count_reduction"],
		"threshold": {"trait": "file_count_reduction", "min": 10}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Generators[0].Name != "table-scope" || s.Traits[0].Name != "file_count_reduction" {
		t.Fatalf("shorthand components = %+v / %+v", s.Generators, s.Traits)
	}
	if err := Validate(s, StubEnv()); err != nil {
		t.Fatal(err)
	}
}

// --- Rejection: unknown components, params, fields, bad structure ---

func TestUnknownComponentRejected(t *testing.T) {
	s := DefaultSpec()
	s.Generators = []Component{C("tabel-scope")} // typo
	err := Validate(s, StubEnv())
	if err == nil || !strings.Contains(err.Error(), `unknown generator "tabel-scope"`) {
		t.Fatalf("err = %v", err)
	}
	// The error names the registered alternatives.
	if !strings.Contains(err.Error(), "table-scope") {
		t.Fatalf("err does not list registered names: %v", err)
	}
}

func TestUnknownParamRejected(t *testing.T) {
	s := DefaultDataSpec(true)
	s.StatsFilters = []Component{{Name: "min-small-files", Params: map[string]any{"min": float64(2), "mim": float64(3)}}}
	err := Validate(s, StubEnv())
	if err == nil || !strings.Contains(err.Error(), `unknown param "mim"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestWrongParamTypeRejected(t *testing.T) {
	s := DefaultDataSpec(true)
	s.StatsFilters = []Component{{Name: "min-small-files", Params: map[string]any{"min": "two"}}}
	if err := Validate(s, StubEnv()); err == nil || !strings.Contains(err.Error(), "must be an integer") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownTopLevelFieldRejected(t *testing.T) {
	_, err := Parse([]byte(`{"generators": ["table-scope"], "trait": ["file_count_reduction"]}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("err = %v", err)
	}
}

// TestTrailingDataRejected pins that a spec file holds one object: a
// second object or junk after it must not load as the first alone.
func TestTrailingDataRejected(t *testing.T) {
	spec := `{"generators": ["table-scope"], "traits": ["file_count_reduction"]}`
	if _, err := Parse([]byte(spec + "\n")); err != nil {
		t.Fatalf("trailing whitespace: %v", err)
	}
	for _, tail := range []string{`{"name": "second"}`, ` junk`, `]`} {
		if _, err := Parse([]byte(spec + tail)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("spec followed by %q: err = %v", tail, err)
		}
	}
}

func TestBadWeightsRejected(t *testing.T) {
	s := DefaultDataSpec(false)
	s.Objectives[0].Weight = 0.9 // 0.9 + 0.3 != 1
	if err := Validate(s, StubEnv()); err == nil || !strings.Contains(err.Error(), "sum to") {
		t.Fatalf("err = %v", err)
	}
}

func TestQuotaAdaptiveArity(t *testing.T) {
	s := DefaultSpec() // three objectives
	s.QuotaAdaptive = true
	if err := Validate(s, StubEnv()); err == nil || !strings.Contains(err.Error(), "exactly 2 objectives") {
		t.Fatalf("err = %v", err)
	}
}

func TestObjectiveTraitMustBeComputed(t *testing.T) {
	s := DefaultDataSpec(true)
	s.Objectives[0].Trait = C("file_entropy") // not in the traits list
	if err := Validate(s, StubEnv()); err == nil || !strings.Contains(err.Error(), "not in the traits list") {
		t.Fatalf("err = %v", err)
	}
}

// TestTraitMistakesRejected pins the three trait mistakes Compile
// rejects, each with an error naming the trait: a name listed twice in
// traits (the last entry used to win), an objective or threshold trait
// whose params differ from its traits entry (they were ignored), and a
// max-trait filter naming a trait the list does not compute (it read 0
// and kept everything).
func TestTraitMistakesRejected(t *testing.T) {
	cost := func(mem float64) Component {
		return Component{Name: "compute_cost_gbhr", Params: map[string]any{"executor_memory_gb": mem}}
	}
	maxTrait := func(name string) Component {
		return Component{Name: "max-trait", Params: map[string]any{"trait": name, "max": float64(5)}}
	}
	for _, tc := range []struct {
		name string
		edit func(s *Spec)
		want []string
	}{
		{"duplicate trait", func(s *Spec) {
			s.Traits = append(s.Traits, C("file_count_reduction"))
		}, []string{`trait "file_count_reduction" is listed twice`}},
		{"duplicate trait with other params", func(s *Spec) {
			s.Traits = append(s.Traits, cost(32))
		}, []string{`trait "compute_cost_gbhr" is listed twice`}},
		{"objective params differ", func(s *Spec) {
			s.Traits[1] = cost(32)
			s.Objectives[1].Trait = cost(64)
		}, []string{`objective trait "compute_cost_gbhr" has params that differ`}},
		{"objective params on a bare entry", func(s *Spec) {
			s.Objectives[1].Trait = cost(64)
		}, []string{`objective trait "compute_cost_gbhr" has params that differ`}},
		{"threshold params differ", func(s *Spec) {
			s.Objectives, s.QuotaAdaptive = nil, false
			s.Traits = append(s.Traits, Component{Name: "file_entropy", Params: map[string]any{"target_file_size": float64(1 << 20)}})
			s.Threshold = &ThresholdSpec{Trait: Component{Name: "file_entropy", Params: map[string]any{"target_file_size": float64(1 << 30)}}, Min: 1}
		}, []string{`threshold trait "file_entropy" has params that differ`}},
		{"max-trait typo", func(s *Spec) {
			s.TraitFilters = []Component{maxTrait("compute_cost")}
		}, []string{`max-trait trait "compute_cost" is not in the traits list`}},
		{"max-trait on an uncomputed fixed slot", func(s *Spec) {
			s.TraitFilters = []Component{maxTrait("metadata_reduction")}
		}, []string{`max-trait trait "metadata_reduction" is not in the traits list`}},
		{"nested max-trait", func(s *Spec) {
			s.TraitFilters = []Component{{Name: "for-action", Params: map[string]any{
				"action": "data-compaction",
				"filter": map[string]any{"name": "max-trait", "params": map[string]any{"trait": "file_entropy"}},
			}}}
		}, []string{`max-trait trait "file_entropy" is not in the traits list`}},
		{"all three at once", func(s *Spec) {
			s.Traits = []Component{C("file_count_reduction"), cost(32), C("file_count_reduction")}
			s.Objectives[1].Trait = cost(64)
			s.TraitFilters = []Component{maxTrait("compute_cost")}
		}, []string{
			`trait "file_count_reduction" is listed twice`,
			`objective trait "compute_cost_gbhr" has params that differ`,
			`max-trait trait "compute_cost" is not in the traits list`,
		}},
	} {
		s := DefaultDataSpec(true)
		tc.edit(s)
		err := Validate(s, StubEnv())
		for _, want := range tc.want {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, want)
			}
		}
	}
}

// TestTraitReferencesAccepted pins what the trait checks still accept:
// a bare objective naming a traits entry with params, params equal to
// the entry's, and a max-trait filter on a listed trait, which reads
// that trait's slot.
func TestTraitReferencesAccepted(t *testing.T) {
	s := DefaultDataSpec(true)
	s.Traits = []Component{
		C("file_count_reduction"),
		{Name: "compute_cost_gbhr", Params: map[string]any{"executor_memory_gb": float64(32)}},
		{Name: "file_entropy", Params: map[string]any{"target_file_size": float64(1 << 20)}},
	}
	s.TraitFilters = []Component{
		{Name: "max-trait", Params: map[string]any{"trait": "file_entropy", "max": float64(9)}},
		{Name: "max-trait", Params: map[string]any{"trait": "compute_cost_gbhr", "max": float64(9)}},
	}
	for _, obj := range []Component{C("compute_cost_gbhr"), s.Traits[1]} {
		s.Objectives[1].Trait = obj
		comp, err := Compile(s, StubEnv(), Bindings{})
		if err != nil {
			t.Fatalf("objective %v: %v", obj, err)
		}
		for i, want := range []int{3, core.SlotComputeCost} {
			if f, ok := comp.Core.TraitFilters[i].(core.MaxTraitValue); !ok || f.Slot != want {
				t.Fatalf("trait filter %d = %#v, want slot %d", i, comp.Core.TraitFilters[i], want)
			}
		}
	}
}

func TestThresholdAndObjectivesExclusive(t *testing.T) {
	s := DefaultDataSpec(true)
	s.Threshold = &ThresholdSpec{Trait: C("file_count_reduction"), Min: 10}
	if err := Validate(s, StubEnv()); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateReportsAllErrors(t *testing.T) {
	s := &Spec{
		Generators: []Component{C("nope")},
		Traits:     []Component{C("also-nope")},
	}
	err := Validate(s, StubEnv())
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{`unknown generator "nope"`, `unknown trait "also-nope"`, "needs a ranker"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err missing %q: %v", want, err)
		}
	}
}

func TestMaintenanceOverrideOnDataOnlySpecRejected(t *testing.T) {
	s := DefaultDataSpec(true)
	s.Databases = map[string]*Patch{"db1": {Maintenance: &MaintenanceSpec{RetainSnapshots: 5}}}
	if err := Validate(s, StubEnv()); err == nil || !strings.Contains(err.Error(), "data-only spec") {
		t.Fatalf("err = %v", err)
	}
}

func TestTriggerOverrideWithoutTriggerSectionRejected(t *testing.T) {
	s := DefaultSpec() // no trigger section
	s.Tables = map[string]*Patch{"db1.t1": {Trigger: &TriggerSpec{EveryCommits: 1}}}
	if err := Validate(s, StubEnv()); err == nil || !strings.Contains(err.Error(), "without a trigger section") {
		t.Fatalf("err = %v", err)
	}
}

// --- Compile: component construction fidelity ---

func TestCompileDefaultSpecShape(t *testing.T) {
	comp, err := Compile(DefaultSpec(), StubEnv(), Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	gen, ok := comp.Core.Generator.(maintenance.Generator)
	if !ok {
		t.Fatalf("generator = %T", comp.Core.Generator)
	}
	if _, ok := gen.Data.(core.TableScopeGenerator); !ok {
		t.Fatalf("data generator = %T", gen.Data)
	}
	sel, ok := comp.Core.Selector.(core.BudgetSelector)
	if !ok || sel.BudgetGBHr != 50*1024 {
		t.Fatalf("selector = %#v", comp.Core.Selector)
	}
	if len(comp.Core.StatsFilters) != 2 {
		t.Fatalf("stats filters = %v", comp.Core.StatsFilters)
	}
	fa, ok := comp.Core.StatsFilters[0].(core.ForAction)
	if !ok || fa.Action != core.ActionDataCompaction {
		t.Fatalf("filter[0] = %#v", comp.Core.StatsFilters[0])
	}
	if _, ok := fa.Inner.(core.MinSmallFiles); !ok {
		t.Fatalf("inner filter = %T", fa.Inner)
	}
	if !comp.HasExecution || comp.Sched.Workers != 8 || comp.Sched.Shards != 4 {
		t.Fatalf("sched = %+v", comp.Sched)
	}
	if comp.Incremental {
		t.Fatal("default spec should not enable the observation plane")
	}
	if comp.Maintenance != (maintenance.Policy{RetainSnapshots: 20, CheckpointEveryVersions: 100, MinManifestSurplus: 8}) {
		t.Fatalf("maintenance = %+v", comp.Maintenance)
	}
}

func TestCompileEnvDefaultsFlowIntoTraits(t *testing.T) {
	env := StubEnv()
	env.ExecutorMemoryGB = 32
	env.RewriteBytesPerHour = 1e12
	comp, err := Compile(DefaultDataSpec(true), env, Bindings{})
	if err != nil {
		t.Fatal(err)
	}
	var cost core.ComputeCost
	found := false
	for _, tr := range comp.Core.Traits {
		if c, ok := tr.(core.ComputeCost); ok {
			cost, found = c, true
		}
	}
	if !found || cost.ExecutorMemoryGB != 32 || cost.RewriteBytesPerHour != 1e12 {
		t.Fatalf("compute cost trait = %+v (found %v)", cost, found)
	}
}

// --- Override layering precedence ---

func layeredSpec() *Spec {
	s := DefaultSpec()
	s.Trigger = &TriggerSpec{EveryCommits: 10}
	s.Databases = map[string]*Patch{
		"dbA": {
			Maintenance: &MaintenanceSpec{RetainSnapshots: 10},
			Trigger:     &TriggerSpec{EveryCommits: 5},
		},
	}
	s.Tables = map[string]*Patch{
		"dbA.t1": {
			Maintenance: &MaintenanceSpec{RetainSnapshots: 7, MinManifestSurplus: -1},
			Trigger:     &TriggerSpec{BytesWritten: 4096},
		},
	}
	return s
}

func TestLayeringPrecedenceSpecOnly(t *testing.T) {
	src := NewSource(layeredSpec(), nil)

	// Unmatched table: base spec only.
	pol := src.PolicyFor("dbZ", "t9")
	if pol.RetainSnapshots != 20 || pol.CheckpointEveryVersions != 100 || pol.MinManifestSurplus != 8 {
		t.Fatalf("base policy = %+v", pol)
	}
	// Database patch overrides retain, inherits the rest.
	pol = src.PolicyFor("dbA", "t9")
	if pol.RetainSnapshots != 10 || pol.CheckpointEveryVersions != 100 || pol.MinManifestSurplus != 8 {
		t.Fatalf("db-layer policy = %+v", pol)
	}
	// Table patch overrides the database patch; -1 disables rewrites.
	pol = src.PolicyFor("dbA", "t1")
	if pol.RetainSnapshots != 7 || pol.CheckpointEveryVersions != 100 || pol.MinManifestSurplus != -1 {
		t.Fatalf("table-layer policy = %+v", pol)
	}

	// Trigger layering: base 10 → db 5; table patch adds bytes only.
	tbl := fakeTable{db: "dbA", name: "t9"}
	if tr := src.TriggerFor(tbl); tr.EveryCommits != 5 || tr.BytesWritten != 0 {
		t.Fatalf("db-layer trigger = %+v", tr)
	}
	tbl = fakeTable{db: "dbA", name: "t1"}
	if tr := src.TriggerFor(tbl); tr.EveryCommits != 5 || tr.BytesWritten != 4096 {
		t.Fatalf("table-layer trigger = %+v", tr)
	}
	tbl = fakeTable{db: "dbZ", name: "t9"}
	if tr := src.TriggerFor(tbl); tr.EveryCommits != 10 {
		t.Fatalf("base trigger = %+v", tr)
	}
}

func TestLayeringPrecedenceWithCatalog(t *testing.T) {
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(1))
	cp := catalog.New(fs, clock)
	if _, err := cp.CreateDatabase("dbA", "tenant", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.CreateTable("dbA", lst.TableConfig{Name: "t1"}); err != nil {
		t.Fatal(err)
	}
	if err := cp.SetPolicies("dbA", "t1", catalog.TablePolicies{RetainSnapshots: 3, TriggerEveryCommits: 2}); err != nil {
		t.Fatal(err)
	}

	src := NewSource(layeredSpec(), cp)

	// Catalog table layer beats the spec's database (10) and table (7)
	// patches.
	pol := src.PolicyFor("dbA", "t1")
	if pol.RetainSnapshots != 3 {
		t.Fatalf("catalog table layer lost: %+v", pol)
	}
	// Fields the catalog leaves unset survive all layers: the base spec's
	// checkpoint cadence and the table patch's disabled rewrites.
	if pol.CheckpointEveryVersions != 100 || pol.MinManifestSurplus != -1 {
		t.Fatalf("spec field lost: %+v", pol)
	}
	// Trigger: catalog table layer over the spec's patches (db 5, table
	// bytes 4096).
	tr := src.TriggerFor(fakeTable{db: "dbA", name: "t1"})
	if tr.EveryCommits != 2 || tr.BytesWritten != 4096 {
		t.Fatalf("trigger layering = %+v", tr)
	}
	// Unknown-to-catalog tables fall back to the spec layers.
	pol = src.PolicyFor("dbZ", "nope")
	if pol.RetainSnapshots != 20 {
		t.Fatalf("unknown table policy = %+v", pol)
	}
}

// fakeTable implements the slice of core.Table the trigger resolver
// reads.
type fakeTable struct{ db, name string }

func (f fakeTable) Database() string                     { return f.db }
func (f fakeTable) Name() string                         { return f.name }
func (f fakeTable) FullName() string                     { return f.db + "." + f.name }
func (fakeTable) Spec() lst.PartitionSpec                { return lst.PartitionSpec{} }
func (fakeTable) Mode() lst.WriteMode                    { return lst.CopyOnWrite }
func (fakeTable) Prop(string) string                     { return "" }
func (fakeTable) Created() time.Duration                 { return 0 }
func (fakeTable) LastWrite() time.Duration               { return 0 }
func (fakeTable) FileCount() int                         { return 0 }
func (fakeTable) TotalBytes() int64                      { return 0 }
func (fakeTable) Partitions() []string                   { return nil }
func (fakeTable) LiveFiles() []lst.DataFile              { return nil }
func (fakeTable) FilesInPartition(string) []lst.DataFile { return nil }

// --- Hot reload watcher ---

func TestWatcherReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	write := func(s *Spec) {
		b, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(DefaultSpec())

	w, s, err := NewWatcher(path, StubEnv())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "default" {
		t.Fatalf("initial spec = %q", s.Name)
	}

	// Unchanged file: no reload.
	if _, changed, err := w.Poll(); err != nil || changed {
		t.Fatalf("poll unchanged = %v, %v", changed, err)
	}

	// Valid edit: reload with the new content.
	edited := DefaultSpec()
	edited.Name = "edited"
	edited.Selector = &Component{Name: "top-k", Params: map[string]any{"k": float64(3)}}
	write(edited)
	ns, changed, err := w.Poll()
	if err != nil || !changed {
		t.Fatalf("poll changed = %v, %v", changed, err)
	}
	if ns.Name != "edited" {
		t.Fatalf("reloaded spec = %q", ns.Name)
	}

	// Invalid edit: reported once, then quiescent until the next change.
	if err := os.WriteFile(path, []byte(`{"generators": ["no-such"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, changed, err := w.Poll(); err == nil || changed {
		t.Fatalf("poll invalid = %v, %v", changed, err)
	}
	if _, changed, err := w.Poll(); err != nil || changed {
		t.Fatalf("poll after reported error = %v, %v", changed, err)
	}

	// Fixing the file reloads again.
	write(DefaultSpec())
	ns, changed, err = w.Poll()
	if err != nil || !changed || ns.Name != "default" {
		t.Fatalf("poll fixed = %v, %v, %v", ns, changed, err)
	}

	// An unreadable file is reported once, not every poll.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, changed, err := w.Poll(); err == nil || changed {
		t.Fatalf("poll removed = %v, %v", changed, err)
	}
	if _, changed, err := w.Poll(); err != nil || changed {
		t.Fatalf("poll after reported read error = %v, %v", changed, err)
	}
	write(DefaultSpec())
	if _, changed, err := w.Poll(); err != nil || changed {
		t.Fatalf("poll restored identical content = %v, %v", changed, err)
	}
}

// --- Diff ---

func TestDiff(t *testing.T) {
	a := DefaultSpec()
	b := DefaultSpec()
	if d := Diff(a, b); len(d) != 0 {
		t.Fatalf("identical specs diff = %v", d)
	}
	b.Selector = &Component{Name: "top-k", Params: map[string]any{"k": float64(10)}}
	b.Maintenance.RetainSnapshots = 5
	d := Diff(a, b)
	joined := strings.Join(d, "\n")
	for _, want := range []string{"maintenance.retain_snapshots: 20 -> 5", "selector.name", "selector.params.k"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("diff missing %q:\n%s", want, joined)
		}
	}
}

// --- Registry extension ---

func TestCustomComponentRegistration(t *testing.T) {
	reg := NewRegistry()
	reg.Register(KindFilter, "always-drop", func(*Builder, *Args) (any, error) {
		return core.FilterFunc{FilterName: "always-drop", Fn: func(*core.Candidate) bool { return false }}, nil
	})
	s := DefaultDataSpec(true)
	s.PreFilters = []Component{C("always-drop")}
	env := StubEnv()
	if err := Validate(s, env); err == nil {
		t.Fatal("builtin registry should not know always-drop")
	}
	env.Registry = reg
	if err := Validate(s, env); err != nil {
		t.Fatalf("custom registry: %v", err)
	}
}

// TestShardCountsBounded pins the MaxShards bound on both shard counts:
// 1<<32 and 1<<32+1 fail to compile with an error naming the field and
// the value (the first divides by zero when a table hashes onto its
// shard, the second hashes every table to shard 0), and 65,536
// compiles.
func TestShardCountsBounded(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(ex *ExecutionSpec, n int)
	}{
		{"execution.shards", func(ex *ExecutionSpec, n int) { ex.Shards = n }},
		{"execution.decide_shards", func(ex *ExecutionSpec, n int) { ex.DecideShards = n }},
	} {
		for _, n := range []int{1 << 32, 1<<32 + 1, MaxShards} {
			s := DefaultSpec()
			tc.set(s.Execution, n)
			_, err := Compile(s, StubEnv(), Bindings{})
			if n <= MaxShards {
				if err != nil {
					t.Errorf("%s %d: %v", tc.field, n, err)
				}
				continue
			}
			if want := fmt.Sprintf("%s must be at most %d, got %d", tc.field, MaxShards, n); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %d: err = %v, want it to contain %q", tc.field, n, err, want)
			}
		}
	}
}
