// Package policy is AutoComp's declarative policy plane: a
// JSON-serializable Spec that describes the whole observe→orient→
// decide→act pipeline as data — generator chain, filters with
// parameters, trait set, MOOP objectives and weights (including the
// quota-adaptive production weighting), selector and GBHr budget,
// execution-plane knobs (workers/shards/backoff), and the incremental
// observation plane's trigger policy — plus a component registry of
// named factories so specs resolve by {name, params} pairs, and a
// Compile step that turns a validated spec into the core.Config,
// scheduler.Config, and changefeed trigger the runtime consumes.
//
// The paper's central framing is that compaction policy must be
// configurable per deployment rather than baked into code (§3, NFR1),
// and the LSM compaction design-space analysis (arXiv 2202.04522) shows
// these knobs form a composable design space worth enumerating as data.
// Before this package every consumer hand-constructed core.Config in Go;
// a Spec is the serializable artifact operators version, validate, diff,
// and hot-reload instead.
//
// Layered resolution: a Spec carries base per-table knobs (maintenance
// policy, trigger policy) plus per-database and per-table override
// patches; when a catalog is bound at compile time, the catalog's
// database- and table-level policies layer on top (base spec → spec
// per-db → spec per-table → catalog per-db → catalog per-table, most
// specific wins field-wise).
package policy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Duration marshals a time.Duration as a human-readable string ("36h",
// "45s") in spec JSON.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("policy: duration must be a string like \"36h\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("policy: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// Component references a registered pipeline component by name, with
// optional parameters. In JSON a component is either an object
// {"name": ..., "params": {...}} or, when it takes no parameters, a bare
// string:
//
//	"generators": ["table-scope"]
//	"stats_filters": [{"name": "min-small-files", "params": {"min": 2}}]
type Component struct {
	Name   string         `json:"name"`
	Params map[string]any `json:"params,omitempty"`
}

// C is shorthand for a parameterless component reference.
func C(name string) Component { return Component{Name: name} }

// MarshalJSON implements json.Marshaler: parameterless components render
// as bare strings.
func (c Component) MarshalJSON() ([]byte, error) {
	if len(c.Params) == 0 {
		return json.Marshal(c.Name)
	}
	type alias struct {
		Name   string         `json:"name"`
		Params map[string]any `json:"params,omitempty"`
	}
	return json.Marshal(alias{c.Name, c.Params})
}

// UnmarshalJSON implements json.Unmarshaler, accepting both forms.
func (c *Component) UnmarshalJSON(b []byte) error {
	trimmed := bytes.TrimSpace(b)
	if len(trimmed) > 0 && trimmed[0] == '"' {
		c.Params = nil
		return json.Unmarshal(trimmed, &c.Name)
	}
	var obj struct {
		Name   string         `json:"name"`
		Params map[string]any `json:"params"`
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil {
		return fmt.Errorf("policy: bad component: %w", err)
	}
	c.Name, c.Params = obj.Name, obj.Params
	return nil
}

// ObjectiveSpec is one weighted term of the scalarized MOOP (§4.3).
type ObjectiveSpec struct {
	// Trait names the trait this term reads; it must also appear in the
	// spec's traits list so its values are computed during orient.
	Trait Component `json:"trait"`
	// Weight is the term's relative importance; static weights must sum
	// to 1. Ignored when the spec is quota-adaptive.
	Weight float64 `json:"weight,omitempty"`
}

// ThresholdSpec is the unconstrained-resource decision function (§4.3):
// candidates pass when the trait meets the minimum, scored by the raw
// trait value. Mutually exclusive with objectives.
type ThresholdSpec struct {
	Trait Component `json:"trait"`
	Min   float64   `json:"min"`
}

// MaintenanceSpec enables the unified maintenance pipeline (metadata
// actions ranked against data compaction) and carries its base policy.
// In override patches, zero-valued fields inherit the lower layer and
// negative values disable the action family for the matched scope.
type MaintenanceSpec struct {
	// RetainSnapshots is how many snapshots expiry keeps (min 1).
	RetainSnapshots int `json:"retain_snapshots,omitempty"`
	// CheckpointEveryVersions is how many commits may accumulate before
	// a metadata checkpoint is due (0 disables checkpointing).
	CheckpointEveryVersions int64 `json:"checkpoint_every_versions,omitempty"`
	// MinManifestSurplus is how many manifests beyond the consolidated
	// floor trigger a manifest rewrite (0 disables rewrites).
	MinManifestSurplus int `json:"min_manifest_surplus,omitempty"`
}

// ExecutionSpec enables the concurrent execution plane and carries its
// scheduler knobs (§4.4).
type ExecutionSpec struct {
	// Workers is the number of concurrent job slots (min 1).
	Workers int `json:"workers"`
	// Shards is the number of GBHr budget shards tables hash onto.
	Shards int `json:"shards,omitempty"`
	// ShardBudgetGBHr is each shard's per-cycle budget (0 = unlimited).
	ShardBudgetGBHr float64 `json:"shard_budget_gbhr,omitempty"`
	// StalenessBound is how many versions a table may advance between
	// job start and commit before the commit retries; unset means 0
	// (any concurrent writer commit conflicts), negative disables.
	StalenessBound *int64 `json:"staleness_bound,omitempty"`
	// MaxAttempts bounds per-job retries (0 = scheduler default).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// RetryBase and RetryMax bound the exponential backoff between
	// attempts (zero values take the scheduler defaults).
	RetryBase Duration `json:"retry_base,omitempty"`
	RetryMax  Duration `json:"retry_max,omitempty"`
	// AgingRatePerHour is accepted and has no effect: each cycle's
	// selection dispatches in rank order.
	AgingRatePerHour float64 `json:"aging_rate_per_hour,omitempty"`
	// DecideShards partitions the decide phase (generation, filtering,
	// observation, MOOP ranking) across this many table-hash shards run
	// in parallel — byte-identical decisions, lower wall time on
	// multi-core hosts. 0 or 1 decides serially.
	DecideShards int `json:"decide_shards,omitempty"`
	// DecideWorkers bounds the goroutines working decide shards
	// (0 = min(DecideShards, GOMAXPROCS)). Meaningful only with
	// DecideShards > 1.
	DecideWorkers int `json:"decide_workers,omitempty"`
}

// TriggerSpec enables the incremental observation plane and carries the
// changefeed trigger policy: how much write activity promotes a table
// into the dirty set for re-observation.
type TriggerSpec struct {
	// EveryCommits fires the trigger once this many commits accumulate
	// (min 1: every commit, which preserves full-scan decision parity).
	EveryCommits int64 `json:"every_commits,omitempty"`
	// BytesWritten, when positive, also fires once this many bytes
	// accumulate since the last observation.
	BytesWritten int64 `json:"bytes_written,omitempty"`
	// ReconcileEvery runs a reconciling full scan every Nth cycle
	// (0 = cold-start full scan only).
	ReconcileEvery int `json:"reconcile_every,omitempty"`
}

// StorageSpec selects the lake's storage backend: "memory" (the
// default; state lives in the simulated namespace only) or "log" (every
// committed table version appends to a durable _delta_log directory
// under Root, and the lake replays it on restart — see docs/storage.md).
type StorageSpec struct {
	// Backend is "memory" or "log".
	Backend string `json:"backend"`
	// Root is the on-disk directory holding the persisted lake
	// (required for the log backend).
	Root string `json:"root,omitempty"`
	// Fsync is the log backend's durability policy: "none" (default;
	// atomic renames only) or "always" (fsync every action file and its
	// directory).
	Fsync string `json:"fsync,omitempty"`
}

// Durable reports whether the spec selects the durable log backend.
func (s *StorageSpec) Durable() bool { return s != nil && s.Backend == StorageBackendLog }

// Storage backends.
const (
	StorageBackendMemory = "memory"
	StorageBackendLog    = "log"
)

// Patch is a per-database or per-table override layer: fields present
// override the layer below, absent fields inherit.
type Patch struct {
	Maintenance *MaintenanceSpec `json:"maintenance,omitempty"`
	Trigger     *TriggerSpec     `json:"trigger,omitempty"`
}

// Spec declaratively describes one AutoComp pipeline. The zero value is
// not runnable; a spec needs at least one generator (unless maintenance
// is enabled, which can run metadata-only), at least one trait, and a
// ranker (objectives or threshold).
type Spec struct {
	Name        string `json:"name,omitempty"`
	Description string `json:"description,omitempty"`

	// Generators chain: every generator's candidates are concatenated
	// (§4.1's combination-of-scopes workflows). Empty is allowed only
	// with a maintenance section (metadata-only pipeline).
	Generators []Component `json:"generators,omitempty"`

	// Filters at the three refinement points (§3.3).
	PreFilters   []Component `json:"pre_filters,omitempty"`
	StatsFilters []Component `json:"stats_filters,omitempty"`
	TraitFilters []Component `json:"trait_filters,omitempty"`

	// Traits computed during orient (§4.2).
	Traits []Component `json:"traits"`

	// Objectives scalarize the MOOP (§4.3); QuotaAdaptive replaces the
	// static weights with the production weighting w1 = 0.5·(1+quota)
	// (§7) and requires exactly two objectives (benefit, cost).
	Objectives    []ObjectiveSpec `json:"objectives,omitempty"`
	QuotaAdaptive bool            `json:"quota_adaptive,omitempty"`
	// Threshold is the alternative unconstrained-resource ranker.
	Threshold *ThresholdSpec `json:"threshold,omitempty"`

	// Selector picks work units from the ranked list (default "all").
	Selector *Component `json:"selector,omitempty"`
	// Scheduler plans the serial act phase's rounds (default
	// "sequential"). It cannot be combined with Execution, whose pool
	// orders jobs by rank instead.
	Scheduler *Component `json:"scheduler,omitempty"`

	// Maintenance, when present, generalizes the pipeline to the unified
	// maintenance family (snapshot expiry, metadata checkpointing,
	// manifest rewriting ranked with data compaction).
	Maintenance *MaintenanceSpec `json:"maintenance,omitempty"`
	// Execution, when present, runs the act phase on the concurrent
	// execution plane instead of the serial loop.
	Execution *ExecutionSpec `json:"execution,omitempty"`
	// Trigger, when present, makes observation commit-event-driven.
	Trigger *TriggerSpec `json:"trigger,omitempty"`
	// Storage, when present, selects the lake's storage backend
	// ("memory" or the durable "log" backend).
	Storage *StorageSpec `json:"storage,omitempty"`

	// Databases and Tables are override layers keyed by database name
	// and full table name ("db.table"): base spec → database patch →
	// table patch, field-wise.
	Databases map[string]*Patch `json:"databases,omitempty"`
	Tables    map[string]*Patch `json:"tables,omitempty"`
}

// DisplayName names the spec in logs, traces and reports: its Name, or
// "(unnamed)" for a nil or anonymous spec.
func (s *Spec) DisplayName() string {
	if s == nil || s.Name == "" {
		return "(unnamed)"
	}
	return s.Name
}

// Clone returns a deep copy (via JSON round-trip) so callers can apply
// overrides without mutating a shared spec.
func (s *Spec) Clone() *Spec {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("policy: clone marshal: %v", err))
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		panic(fmt.Sprintf("policy: clone unmarshal: %v", err))
	}
	return &out
}

// Parse decodes a spec from JSON under DecodeStrict's rules.
func Parse(b []byte) (*Spec, error) {
	var s Spec
	if err := DecodeStrict(b, &s); err != nil {
		return nil, fmt.Errorf("policy: parse spec: %w", err)
	}
	return &s, nil
}

// DecodeStrict decodes the single JSON value in b into v, the rule for
// operator-authored files (policy specs, scenarios, tune spaces): an
// unknown field fails loudly instead of silently defaulting, and so do
// bytes after the value, which would otherwise load as the first value
// alone.
func DecodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Marshal renders the spec as indented JSON (the on-disk format).
func (s *Spec) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
