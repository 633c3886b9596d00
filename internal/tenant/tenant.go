// Package tenant is AutoComp's multi-tenant serving layer: it bundles a
// named lake (fleet substrate + spec-compiled pipeline + per-tenant
// policy source + isolated RNG seed) behind a lifecycle state machine,
// and a Manager that hosts many such tenants in one daemon, running
// each tenant's OODA cycles concurrently.
//
// The paper's deployment (§7) is AutoComp as a shared service over many
// independent LinkedIn lakes — one daemon, many tenants, each with its
// own policy and budget. A Tenant is one such lake: its fleet draws
// every random stream from its own seed (sim.Child derivation), its
// pipeline compiles from its own policy.Spec, and its decision trace
// flows to its own telemetry.Tracer under its own `tenant` label — so
// tenants are deterministic in isolation and unperturbed by neighbours
// (pinned by the manager race tests).
//
// Policy changes arrive two ways, with identical semantics: a file
// watcher polled between cycles (the daemon's -policy flag) or a push
// over the management API (internal/server). Both validate first,
// report rejected edits without disturbing the running pipeline, and
// swap atomically at a cycle boundary — never mid-cycle.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/telemetry"
)

// State is a tenant's lifecycle position: created → running ⇄ paused →
// stopped. Stopped is terminal (a tenant whose cycle failed stops with
// Err set).
type State int32

// Lifecycle states.
const (
	StateCreated State = iota
	StateRunning
	StatePaused
	StateStopped
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateStopped:
		return "stopped"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// MarshalJSON renders the state as its name.
func (s State) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// UnmarshalJSON parses a state name (the MarshalJSON form), so API
// clients can decode snapshots.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for _, st := range []State{StateCreated, StateRunning, StatePaused, StateStopped} {
		if st.String() == name {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("tenant: unknown state %q", name)
}

// Config declares one tenant's lake: its identity, its isolated RNG
// seed, its fleet topology, and how many OODA cycles it runs. Zero
// topology fields inherit the fleet substrate's defaults
// (fleet.DefaultConfig), so a minimal config is {"name": "x"}.
type Config struct {
	// Name identifies the tenant; it labels every metric and trace event
	// the tenant emits and keys the management API routes.
	Name string `json:"name"`
	// Seed drives every random stream of this tenant's lake. Each tenant
	// derives its own child streams from its own seed, so tenants never
	// share (or perturb) each other's draws. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// Days is how many observe→decide→act cycles the tenant runs before
	// stopping (default 14, one cycle per simulated day).
	Days int `json:"days,omitempty"`

	// Fleet topology (zero values inherit fleet.DefaultConfig).
	InitialTables     int     `json:"initial_tables,omitempty"`
	Databases         int     `json:"databases,omitempty"`
	QuotaObjectsPerDB int64   `json:"quota_objects_per_db,omitempty"`
	TablesPerMonth    int     `json:"tables_per_month,omitempty"`
	DailyWriteProb    float64 `json:"daily_write_prob,omitempty"`
	DailyDriftProb    float64 `json:"daily_drift_prob,omitempty"`

	// WriterCommitsPerHour races live writers against the compactor
	// during execution windows (0 = quiet lake).
	WriterCommitsPerHour float64 `json:"writer_commits_per_hour,omitempty"`
	// BudgetTBHr, when positive, overrides the policy spec's selector
	// with a per-cycle compute budget of this many TBHr — the tenant's
	// budget knob, applied to whatever spec the tenant runs.
	BudgetTBHr float64 `json:"budget_tbhr,omitempty"`
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Name == "" {
		return errors.New("tenant: name is required")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Days == 0 {
		c.Days = 14
	}
	if c.Days < 1 {
		return fmt.Errorf("tenant %s: days must be >= 1, got %d", c.Name, c.Days)
	}
	if c.InitialTables < 0 || c.Databases < 0 || c.TablesPerMonth < 0 {
		return fmt.Errorf("tenant %s: fleet topology fields must be >= 0", c.Name)
	}
	if c.InitialTables > fleet.MaxTables {
		return fmt.Errorf("tenant %s: initial_tables must be at most %d, got %d", c.Name, fleet.MaxTables, c.InitialTables)
	}
	if c.TablesPerMonth > fleet.MaxTables {
		return fmt.Errorf("tenant %s: tables_per_month must be at most %d, got %d", c.Name, fleet.MaxTables, c.TablesPerMonth)
	}
	if c.DailyWriteProb < 0 || c.DailyWriteProb > 1 {
		return fmt.Errorf("tenant %s: daily_write_prob must be in [0,1], got %v", c.Name, c.DailyWriteProb)
	}
	return nil
}

// fleetConfig maps the tenant topology onto the substrate's config,
// inheriting the production-shaped defaults where the tenant is silent.
func (c *Config) fleetConfig() fleet.Config {
	fc := fleet.DefaultConfig()
	fc.Seed = c.Seed
	if c.InitialTables > 0 {
		fc.InitialTables = c.InitialTables
	}
	if c.Databases > 0 {
		fc.Databases = c.Databases
	}
	if c.QuotaObjectsPerDB != 0 {
		fc.QuotaObjectsPerDB = c.QuotaObjectsPerDB
	}
	if c.TablesPerMonth != 0 {
		fc.TablesPerMonth = c.TablesPerMonth
	}
	fc.DailyWriteProb = c.DailyWriteProb
	if c.DailyDriftProb > 0 {
		fc.DailyDriftProb = c.DailyDriftProb
	}
	return fc
}

// Options carries host-side wiring a tenant cannot declare about
// itself: where its trace stream goes and how the host observes it.
type Options struct {
	// Tracer receives the tenant's CycleEvents (nil = a fresh private
	// tracer). The daemon hands its default tenant the process-wide
	// tracer so -trace and /statusz keep their pre-tenant meaning.
	Tracer *telemetry.Tracer
	// PollPolicy, when set, is consulted at every cycle boundary — the
	// file-watcher hook (policy.Watcher.Poll). It returns (spec,
	// changed, err); errors are reported through Logf and the running
	// policy stays in force, mirroring the daemon's hot-reload semantics.
	PollPolicy func() (*policy.Spec, bool, error)
	// Provenance names where the initial spec came from ("builtin",
	// "file:<path>", "api", ...), shown by GET /policy.
	Provenance string
	// OnCycle, when set, observes each completed cycle: the trace event
	// (the daemon's per-cycle log line) and the raw report (parity tests
	// fingerprint rep.Decision).
	OnCycle func(ev telemetry.CycleEvent, rep *core.Report)
	// Logf, when set, receives operational messages (policy reloads and
	// rejections). Nil discards them.
	Logf func(format string, args ...any)
}

// Tenant is one lake hosted by the daemon: a fleet.Lake (fleet
// substrate, compiled pipeline, durable store), its policy source,
// lifecycle state, and scenario runs. All exported methods are safe for
// concurrent use; cycle execution is serialized under the tenant's
// lock, so a policy push or a status read never observes a half-run
// cycle.
type Tenant struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	state  State
	stopRq bool
	err    error

	lake       *fleet.Lake
	provenance string
	pending    *policy.Spec // staged policy push, swapped at the next boundary
	pendingPv  string
	policyErr  string // last rejected reload/push, deduped

	tracer *telemetry.Tracer
	opts   Options

	runs    []*Run // submission order, bounded by SubmitRun
	nextRun int

	done chan struct{}
}

// New builds a tenant: its lake at day 0 from the config's seed and
// topology (or restored from the durable store its policy names), its
// pipeline from spec (cloned; nil means policy.DefaultSpec), with the
// config's budget override applied.
func New(cfg Config, spec *policy.Spec, opts Options) (*Tenant, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if spec == nil {
		spec = policy.DefaultSpec()
	} else {
		spec = spec.Clone()
	}
	if cfg.BudgetTBHr > 0 {
		spec.Selector = &policy.Component{
			Name:   "budget",
			Params: map[string]any{"budget_gbhr": cfg.BudgetTBHr * 1024},
		}
	}
	t := &Tenant{
		cfg:        cfg,
		tracer:     opts.Tracer,
		opts:       opts,
		provenance: opts.Provenance,
		done:       make(chan struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	if t.tracer == nil {
		t.tracer = telemetry.NewTracer(telemetry.DefaultTraceDepth)
	}
	if t.provenance == "" {
		t.provenance = "config"
	}
	// When the policy names a durable backend holding this tenant's
	// state, the lake opens restored from it (cold-start recovery).
	lake, err := fleet.OpenLake(cfg.Name, cfg.fleetConfig(), spec, fleet.SpecRunOptions{
		WriterCommitsPerHour: cfg.WriterCommitsPerHour,
		Tenant:               cfg.Name,
		Tracer:               t.tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("tenant %s: %w", cfg.Name, err)
	}
	t.lake = lake
	return t, nil
}

// Name returns the tenant's identity.
func (t *Tenant) Name() string { return t.cfg.Name }

// Config returns the tenant's (normalized) configuration.
func (t *Tenant) Config() Config { return t.cfg }

// Tracer returns the tenant's decision-trace stream.
func (t *Tenant) Tracer() *telemetry.Tracer { return t.tracer }

// Service returns the tenant's compiled pipeline for read-only
// inspection (plane layout at startup). Callers must not run cycles on
// it — StepCycle owns execution.
func (t *Tenant) Service() *fleet.SpecService {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lake.Service()
}

// Done is closed when the tenant reaches a terminal state under a
// manager (completed its days, failed, or was stopped).
func (t *Tenant) Done() <-chan struct{} { return t.done }

// State returns the lifecycle state.
func (t *Tenant) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Day returns the last completed simulation day.
func (t *Tenant) Day() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lake.Day()
}

// Err returns the error that stopped the tenant, if any.
func (t *Tenant) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// PushPolicy validates sp and stages it for an atomic swap at the next
// cycle boundary — the over-the-wire twin of the file watcher's hot
// reload. It returns the field-wise diff against the currently staged
// policy. A spec that fails validation is rejected whole: the error
// carries every compile problem and the running pipeline is untouched.
func (t *Tenant) PushPolicy(sp *policy.Spec) ([]string, error) {
	if sp == nil {
		return nil, errors.New("tenant: nil policy spec")
	}
	sp = sp.Clone()
	if err := policy.Validate(sp, fleet.ValidationEnv()); err != nil {
		mTenantPolicyPushes.With(t.cfg.Name, "rejected").Inc()
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.lake.Spec()
	if t.pending != nil {
		base = t.pending
	}
	diff := policy.Diff(base, sp)
	t.pending = sp
	t.pendingPv = "api"
	mTenantPolicyPushes.With(t.cfg.Name, "accepted").Inc()
	return diff, nil
}

// PolicyInfo returns the running spec (the staged push if one is
// waiting for its boundary), its name, and its provenance.
func (t *Tenant) PolicyInfo() (spec *policy.Spec, name, provenance string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, pv := t.lake.Spec(), t.provenance
	if t.pending != nil {
		sp, pv = t.pending, t.pendingPv+" (staged)"
	}
	return sp.Clone(), sp.DisplayName(), pv
}

// StepCycle runs one OODA cycle: poll the policy file, apply a staged
// push (cycle boundary — the only place the pipeline ever swaps),
// advance the fleet one day, run observe→decide→act, and refresh the
// tenant's served snapshot and labeled telemetry.
func (t *Tenant) StepCycle() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == StateStopped {
		return fmt.Errorf("tenant %s: stopped", t.cfg.Name)
	}
	t.pollPolicyLocked()
	if t.pending != nil {
		sp, pv := t.pending, t.pendingPv
		t.pending, t.pendingPv = nil, ""
		if err := t.lake.SetPolicy(sp); err != nil {
			// Validation passed but compilation against the live fleet did
			// not: report once, keep the running policy.
			t.reportPolicyErr("policy: swap rejected: %v (keeping %s)", err, t.lake.Spec().DisplayName())
			mTenantPolicyPushes.With(t.cfg.Name, "swap-failed").Inc()
		} else {
			t.provenance = pv
			t.policyErr = ""
			t.logf("policy: %s now running %s (%s)", t.cfg.Name, sp.DisplayName(), pv)
		}
	}
	cyc, err := t.lake.Step(nil)
	if err != nil {
		return fmt.Errorf("tenant %s: %w", t.cfg.Name, err)
	}
	mTenantCycles.With(t.cfg.Name).Inc()
	mTenantDay.With(t.cfg.Name).Set(float64(t.lake.Day()))
	mTenantFilesReduced.With(t.cfg.Name).Add(float64(cyc.Report.FilesReduced))
	mTenantGBHrSpent.With(t.cfg.Name).Add(cyc.Report.ActualGBHr)
	if t.opts.OnCycle != nil {
		t.opts.OnCycle(cyc.Event, cyc.Report)
	}
	return nil
}

// pollPolicyLocked consults the tenant's policy file source, staging a
// changed valid spec and reporting (once) a bad revision.
func (t *Tenant) pollPolicyLocked() {
	if t.opts.PollPolicy == nil {
		return
	}
	sp, changed, err := t.opts.PollPolicy()
	switch {
	case err != nil:
		t.reportPolicyErr("policy: reload rejected: %v (keeping %s)", err, t.lake.Spec().DisplayName())
	case changed:
		t.pending = sp
		t.pendingPv = "file"
		t.policyErr = ""
	}
}

// reportPolicyErr logs a policy failure, deduplicating repeats.
func (t *Tenant) reportPolicyErr(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if msg == t.policyErr {
		return
	}
	t.policyErr = msg
	t.logf("%s", msg)
}

func (t *Tenant) logf(format string, args ...any) {
	if t.opts.Logf != nil {
		t.opts.Logf(format, args...)
	}
}

// Pause suspends cycle execution at the next boundary (no-op unless
// running).
func (t *Tenant) Pause() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateRunning {
		return fmt.Errorf("tenant %s: cannot pause from %s", t.cfg.Name, t.state)
	}
	t.setStateLocked(StatePaused)
	return nil
}

// Resume continues a paused tenant.
func (t *Tenant) Resume() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StatePaused {
		return fmt.Errorf("tenant %s: cannot resume from %s", t.cfg.Name, t.state)
	}
	t.setStateLocked(StateRunning)
	return nil
}

// Stop requests a permanent stop at the next cycle boundary. Safe from
// any state; idempotent.
func (t *Tenant) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopRq = true
	t.cond.Broadcast()
}

// setStateLocked transitions state, updating the gauge and waking the
// run loop.
func (t *Tenant) setStateLocked(s State) {
	t.state = s
	mTenantState.With(t.cfg.Name).Set(float64(s))
	t.cond.Broadcast()
}
