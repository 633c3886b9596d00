package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path"
	"strings"

	"autocomp/internal/policy"
	"autocomp/internal/tenant"
)

// The workload files are compiled into the binary, so a run never reads
// a file that could have drifted from the build it measures.
//
//go:embed workloads/*.json
var workloadFiles embed.FS

// Workload is one benchmark input: the tenant's lake, how many cycles
// an episode runs, an optional durable commit stream, and the complete
// policy spec. The spec is inlined rather than referenced from examples/,
// so edits to the examples cannot silently change what is measured.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Tenant is the lake: its seed and topology. The benchmark owns the
	// tenant's name; fields left zero keep their tenant and
	// fleet.DefaultConfig defaults (seed 1), as they do for any tenant.
	Tenant tenant.Config `json:"tenant"`
	// Cycles is the number of timed cycles in one episode.
	Cycles int `json:"cycles"`
	// RestartEvery, when positive, rebuilds the tenant from disk before
	// every RestartEvery-th timed cycle. It needs the log storage backend.
	RestartEvery int `json:"restart_every,omitempty"`
	// Commits, when positive, is the length of the durable lst commit
	// stream the traced run measures after the cycles.
	Commits int `json:"commits,omitempty"`
	// Policy is the full policy spec, parsed with unknown fields rejected.
	Policy json.RawMessage `json:"policy"`

	spec *policy.Spec
}

// warmupCycles run untimed after tenant.New, as part of set-up.
const warmupCycles = 2

// workloadNames lists the embedded workloads, sorted.
func workloadNames() []string {
	files, _ := fs.Glob(workloadFiles, "workloads/*.json")
	names := make([]string, len(files))
	for i, f := range files {
		names[i] = strings.TrimSuffix(path.Base(f), ".json")
	}
	return names
}

// loadWorkload reads and validates the named embedded workload.
func loadWorkload(name string) (*Workload, error) {
	b, err := workloadFiles.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	return parseWorkload(name, b)
}

// parseWorkload decodes a workload file, rejecting unknown fields at
// every level, and checks that its policy validates.
func parseWorkload(name string, b []byte) (*Workload, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var w Workload
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	sp, err := policy.Parse(w.Policy)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	w.spec = sp
	if err := w.validate(name); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return &w, nil
}

func (w *Workload) validate(name string) error {
	var errs []error
	if w.Name != name {
		errs = append(errs, fmt.Errorf("name %q does not match the file name", w.Name))
	}
	if w.Why == "" {
		errs = append(errs, errors.New("why is required"))
	}
	if w.Tenant.Name != "" || w.Tenant.Days != 0 {
		errs = append(errs, errors.New("tenant name and days are set by the benchmark"))
	}
	if w.Tenant.BudgetTBHr != 0 {
		errs = append(errs, errors.New("tenant budget_tbhr is not supported: put the budget in the policy's selector"))
	}
	if w.Cycles < 1 || w.RestartEvery < 0 || w.Commits < 0 {
		errs = append(errs, errors.New("cycles must be >= 1, restart_every and commits >= 0"))
	}
	if w.RestartEvery > 0 && !w.durable() {
		errs = append(errs, errors.New("restart_every needs the log storage backend"))
	}
	if w.spec.Storage.Durable() && w.spec.Storage.Root != "" {
		errs = append(errs, errors.New("policy storage.root is chosen per episode; leave it empty"))
	}
	if err := policy.Validate(w.specAt("per-episode-root"), policy.StubEnv()); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// durable reports whether the workload persists its lake.
func (w *Workload) durable() bool { return w.spec.Storage.Durable() }

// specAt returns a copy of the workload's policy whose durable storage,
// if any, is rooted at root.
func (w *Workload) specAt(root string) *policy.Spec {
	sp := w.spec.Clone()
	if sp.Storage.Durable() {
		sp.Storage.Root = root
	}
	return sp
}

// tenantConfig returns the tenant configuration, with the defaults
// tenant.New would fill made explicit for the traced pipeline.
func (w *Workload) tenantConfig() tenant.Config {
	cfg := w.Tenant
	cfg.Name = w.Name
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	cfg.Days = 1 << 30 // only a tenant Manager consults it
	return cfg
}
