// Package scenario is AutoComp's end-to-end simulation and regression
// plane: a JSON-declarative, seed-deterministic scenario engine that
// composes a fleet topology, temporal write patterns, fault injection,
// and a declarative policy spec (internal/policy) into one runnable
// simulation driving the full observe→decide→act stack — the fleet
// substrate, the incremental observation plane, and the concurrent
// execution plane — on sim.EventQueue virtual time.
//
// The paper validates AutoComp against a handful of fixed workloads
// (§6: CAB, LST-Bench phased runs); the LSM compaction design-space
// survey (arXiv 2202.04522) shows that compaction policies only reveal
// their trade-offs under a matrix of workload shapes — skew, bursts,
// failure, tenancy mix. A scenario is one cell of that matrix as data:
// run it and the engine emits a canonical, normalized trace (per-cycle
// decisions, actions, budget spend, conflict/retry counts, end-of-run
// fleet invariants) that serializes byte-stably for a given (scenario,
// seed). Golden traces committed under examples/scenarios/golden lock
// in end-to-end behaviour: a change that silently shifts any decision
// anywhere in the stack shows up as a trace diff.
//
// Determinism contract: every random draw a scenario makes comes from a
// child stream derived by sim.Child from the scenario seed and a stable
// component label (each write pattern, the drop injector, the
// commit-failure injector, and the fleet's own component streams), so
// adding or removing one component never perturbs another component's
// draws — the property that keeps golden traces reviewable: a diff
// shows what the change did, not seed noise.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"autocomp/internal/fleet"
	"autocomp/internal/policy"
)

// Pattern kinds.
const (
	// KindSteady is a no-op marker: the fleet's organic daily growth is
	// always on, and a steady scenario adds nothing on top. It exists so
	// scenario files can say so explicitly.
	KindSteady = "steady"
	// KindBurst applies periodic write bursts to a random fraction of
	// tables between from_day and to_day.
	KindBurst = "burst"
	// KindBackfill applies a one-day backfill storm: every table of one
	// database (or the whole fleet) receives a heavy batch of commits.
	KindBackfill = "backfill"
	// KindHotSkew concentrates extra daily commits on the currently most
	// fragmented tables — the hot-partition skew that keeps a few tables
	// permanently behind.
	KindHotSkew = "hot-skew"
)

// patternKinds names every known pattern kind, for validation errors.
var patternKinds = []string{KindSteady, KindBurst, KindBackfill, KindHotSkew}

// FleetSpec declares the simulated fleet topology: how many tables and
// tenants, their size/skew distribution, and the organic write dynamics.
// Zero values inherit the fleet substrate's defaults where one exists
// (databases, tiny fraction); tables_per_month of 0 means no onboarding
// during the run.
type FleetSpec struct {
	// InitialTables at simulation start (required, >= 1).
	InitialTables int `json:"initial_tables"`
	// Databases (tenants) the tables spread over (default 10).
	Databases int `json:"databases,omitempty"`
	// QuotaObjectsPerDB is each tenant's namespace quota (0 = unlimited;
	// quota-adaptive policies read utilization against it).
	QuotaObjectsPerDB int64 `json:"quota_objects_per_db,omitempty"`
	// TablesPerMonth onboarded as the deployment grows (0 = none).
	TablesPerMonth int `json:"tables_per_month,omitempty"`
	// InitialTinyFraction is the count-fraction of files below 128 MB at
	// start (default 0.83, the paper's Figure 2).
	InitialTinyFraction float64 `json:"initial_tiny_fraction,omitempty"`
	// DailyDriftProb is the per-table daily probability that a table's
	// write behaviour changes (default 0).
	DailyDriftProb float64 `json:"daily_drift_prob,omitempty"`
	// DailyWriteProb is the per-table daily write probability; 0 (or
	// >= 1) means every table writes every day, sparse values model
	// mostly-cold fleets where incremental observation pays off.
	DailyWriteProb float64 `json:"daily_write_prob,omitempty"`
}

// PatternSpec declares one temporal write pattern layered on top of the
// fleet's organic growth. Fields apply per kind; see docs/scenarios.md
// for the full field→behaviour reference.
type PatternSpec struct {
	// Kind is one of steady, burst, backfill, hot-skew.
	Kind string `json:"kind"`
	// FromDay and ToDay bound recurring patterns (burst, hot-skew);
	// FromDay defaults to 1 and ToDay to the scenario's last day.
	FromDay int `json:"from_day,omitempty"`
	ToDay   int `json:"to_day,omitempty"`
	// EveryDays spaces burst recurrences (default 1: every day in the
	// window).
	EveryDays int `json:"every_days,omitempty"`
	// Day pins one-shot patterns (backfill) to a single day.
	Day int `json:"day,omitempty"`
	// Database targets backfill at one tenant ("" = the whole fleet).
	Database string `json:"database,omitempty"`
	// Tables is how many of the most fragmented tables hot-skew hits
	// each day (default 3).
	Tables int `json:"tables,omitempty"`
	// TablesFraction is the fraction of the fleet a burst hits (default
	// 0.05).
	TablesFraction float64 `json:"tables_fraction,omitempty"`
	// Commits is how many writer commits each affected table receives
	// per firing (default 10).
	Commits int `json:"commits,omitempty"`
	// FilesPerCommit is how many small files each commit lands (default
	// 10).
	FilesPerCommit int `json:"files_per_commit,omitempty"`
}

// DropSpec schedules a table-drop fault: on Day, Tables randomly chosen
// live tables are dropped from the lake (with changefeed Dropped events
// when the policy runs the incremental observation plane).
type DropSpec struct {
	Day    int `json:"day"`
	Tables int `json:"tables"`
}

// RestartSpec schedules a kill/restart fault: at the start of Day,
// before any of the day's work, the engine drops its fleet.Lake and
// reopens it from the run's own store — the cold-start recovery a
// durable daemon tenant performs. The scenario's random streams and its
// trace carry on in memory. A restart is invisible in the canonical
// trace: the post-recovery cycles must be byte-identical to the
// uninterrupted run's (golden-locked).
type RestartSpec struct {
	Day int `json:"day"`
}

// FaultSpec declares the scenario's fault injection.
type FaultSpec struct {
	// WriterCommitsPerHour is the fleet-wide rate of live writer commits
	// racing the compactor during execution windows (0 = quiet lake) —
	// it feeds the execution plane's optimistic-concurrency conflicts.
	WriterCommitsPerHour float64 `json:"writer_commits_per_hour,omitempty"`
	// CommitFailureProb fails each data-compaction job with this
	// probability (drawn from the failure injector's own child stream).
	CommitFailureProb float64 `json:"commit_failure_prob,omitempty"`
	// Drops schedules mid-run table drops.
	Drops []DropSpec `json:"drops,omitempty"`
	// Restarts schedules kill/restart faults.
	Restarts []RestartSpec `json:"restarts,omitempty"`
}

// ReloadSpec schedules a declarative policy hot-reload: starting with
// Day's cycle, the pipeline runs under Policy. Reloads apply at cycle
// boundaries only, mirroring the daemon's between-cycle Watcher poll.
type ReloadSpec struct {
	Day    int          `json:"day"`
	Policy *policy.Spec `json:"policy"`
}

// Spec declares one complete scenario. The zero value is not runnable; a
// spec needs a name, a day count, and an initial fleet size. A nil
// Policy runs policy.DefaultSpec().
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives every random stream in the run; equal (scenario, seed)
	// pairs produce byte-identical traces.
	Seed int64 `json:"seed"`
	// Days is how many observe→decide→act cycles the scenario runs (one
	// cycle per simulated day).
	Days int `json:"days"`

	Fleet    FleetSpec     `json:"fleet"`
	Workload []PatternSpec `json:"workload,omitempty"`
	Faults   *FaultSpec    `json:"faults,omitempty"`
	Policy   *policy.Spec  `json:"policy,omitempty"`
	Reloads  []ReloadSpec  `json:"reloads,omitempty"`
}

// Parse decodes a scenario from JSON under policy.DecodeStrict's rules:
// unknown fields and trailing data are rejected.
func Parse(b []byte) (*Spec, error) {
	var s Spec
	if err := policy.DecodeStrict(b, &s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	return &s, nil
}

// LoadFile parses a scenario from a JSON file.
func LoadFile(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadDir loads every *.json scenario in dir, sorted by file name.
func LoadDir(dir string) ([]*Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*Spec, 0, len(paths))
	for _, p := range paths {
		s, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Marshal renders the scenario as indented JSON (the on-disk format).
func (s *Spec) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Validate checks the scenario end to end — structure, pattern kinds and
// windows, fault bounds, and the embedded policy specs (validated
// against the fleet's modeling defaults). Every problem found is
// returned, joined.
func (s *Spec) Validate() error {
	if s == nil {
		return errors.New("scenario: nil spec")
	}
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("scenario: "+format, args...))
	}
	if s.Name == "" {
		fail("name is required (it keys the golden trace)")
	}
	if strings.ContainsAny(s.Name, " /\\") {
		fail("name %q must not contain spaces or path separators", s.Name)
	}
	if s.Days < 1 {
		fail("days must be >= 1, got %d", s.Days)
	}
	if s.Days > fleet.MaxDays {
		fail("days must be at most %d, got %d", fleet.MaxDays, s.Days)
	}
	if s.Fleet.InitialTables < 1 {
		fail("fleet.initial_tables must be >= 1, got %d", s.Fleet.InitialTables)
	}
	if s.Fleet.InitialTables > fleet.MaxTables {
		fail("fleet.initial_tables must be at most %d, got %d", fleet.MaxTables, s.Fleet.InitialTables)
	}
	if s.Fleet.TablesPerMonth > fleet.MaxTables {
		fail("fleet.tables_per_month must be at most %d, got %d", fleet.MaxTables, s.Fleet.TablesPerMonth)
	}
	if p := s.Fleet.DailyWriteProb; p < 0 || p > 1 {
		fail("fleet.daily_write_prob must be in [0,1], got %v", p)
	}
	if p := s.Fleet.DailyDriftProb; p < 0 || p > 1 {
		fail("fleet.daily_drift_prob must be in [0,1], got %v", p)
	}
	for i, p := range s.Workload {
		where := fmt.Sprintf("workload[%d]", i)
		// A field set on a kind that ignores it is a silent
		// misconfiguration (e.g. "day" on a burst would read as a
		// one-shot but fire every day) — reject it loudly, matching the
		// unknown-JSON-field policy.
		rejectSet := func(set bool, field string) {
			if set {
				fail("%s: %q does not apply to kind %q", where, field, p.Kind)
			}
		}
		switch p.Kind {
		case KindSteady:
			rejectSet(p.FromDay != 0 || p.ToDay != 0 || p.EveryDays != 0 || p.Day != 0 ||
				p.Database != "" || p.Tables != 0 || p.TablesFraction != 0 ||
				p.Commits != 0 || p.FilesPerCommit != 0, "any knob")
		case KindBurst:
			rejectSet(p.Day != 0, "day")
			rejectSet(p.Database != "", "database")
			rejectSet(p.Tables != 0, "tables")
			if p.TablesFraction < 0 || p.TablesFraction > 1 {
				fail("%s: tables_fraction must be in [0,1], got %v", where, p.TablesFraction)
			}
		case KindBackfill:
			rejectSet(p.FromDay != 0, "from_day")
			rejectSet(p.ToDay != 0, "to_day")
			rejectSet(p.EveryDays != 0, "every_days")
			rejectSet(p.Tables != 0, "tables")
			rejectSet(p.TablesFraction != 0, "tables_fraction")
			if p.Day < 1 || p.Day > s.Days {
				fail("%s: backfill day %d outside [1,%d]", where, p.Day, s.Days)
			}
		case KindHotSkew:
			rejectSet(p.Day != 0, "day")
			rejectSet(p.Database != "", "database")
			rejectSet(p.EveryDays != 0, "every_days")
			rejectSet(p.TablesFraction != 0, "tables_fraction")
			if p.Tables < 0 {
				fail("%s: tables must be >= 0 (0 or omitted = default 3), got %d", where, p.Tables)
			}
		default:
			fail("%s: unknown kind %q (have: %s)", where, p.Kind, strings.Join(patternKinds, ", "))
			continue
		}
		// Recurring windows must intersect the run, or the pattern can
		// never fire — a silently dead pattern measures nothing the
		// scenario claims to.
		if p.FromDay < 0 || (p.ToDay != 0 && p.ToDay < p.FromDay) {
			fail("%s: bad window [%d,%d]", where, p.FromDay, p.ToDay)
		}
		if p.FromDay > s.Days {
			fail("%s: from_day %d beyond the run's %d days (pattern would never fire)", where, p.FromDay, s.Days)
		}
		if p.ToDay > s.Days {
			fail("%s: to_day %d beyond the run's %d days", where, p.ToDay, s.Days)
		}
		if p.Commits < 0 || p.FilesPerCommit < 0 || p.EveryDays < 0 {
			fail("%s: commits, files_per_commit, every_days must be >= 0 (0 or omitted = default)", where)
		}
	}
	if f := s.Faults; f != nil {
		if f.WriterCommitsPerHour < 0 {
			fail("faults.writer_commits_per_hour must be >= 0, got %v", f.WriterCommitsPerHour)
		}
		if f.CommitFailureProb < 0 || f.CommitFailureProb > 1 {
			fail("faults.commit_failure_prob must be in [0,1], got %v", f.CommitFailureProb)
		}
		for i, d := range f.Drops {
			if d.Day < 1 || d.Day > s.Days {
				fail("faults.drops[%d]: day %d outside [1,%d]", i, d.Day, s.Days)
			}
			if d.Tables < 1 {
				fail("faults.drops[%d]: tables must be >= 1, got %d", i, d.Tables)
			}
		}
		lastRestart := 0
		for i, r := range f.Restarts {
			if r.Day < 2 || r.Day > s.Days {
				fail("faults.restarts[%d]: day %d outside [2,%d] (a restart needs a prior day to recover)", i, r.Day, s.Days)
			}
			if r.Day <= lastRestart {
				fail("faults.restarts[%d]: restart days must be strictly ascending", i)
			}
			lastRestart = r.Day
		}
		if len(f.Restarts) > 0 {
			// The incremental observation plane's dirty-set and stats-cache
			// state is not serialized; a restart under a trigger policy
			// could not be trace-invisible.
			if s.Policy != nil && s.Policy.Trigger != nil {
				fail("faults.restarts: restart faults cannot run under a policy with a trigger section (incremental state is not persisted)")
			}
			for i, r := range s.Reloads {
				if r.Policy != nil && r.Policy.Trigger != nil {
					fail("faults.restarts: reloads[%d] has a trigger section, incompatible with restart faults", i)
				}
			}
		}
	}
	env := fleet.ValidationEnv()
	if s.Policy != nil {
		if err := policy.Validate(s.Policy, env); err != nil {
			errs = append(errs, fmt.Errorf("scenario: policy: %w", err))
		}
	}
	lastReload := 0
	for i, r := range s.Reloads {
		where := fmt.Sprintf("reloads[%d]", i)
		if r.Day < 2 || r.Day > s.Days {
			fail("%s: day %d outside [2,%d] (a reload needs a prior cycle to reload from)", where, r.Day, s.Days)
		}
		if r.Day <= lastReload {
			fail("%s: reload days must be strictly ascending", where)
		}
		lastReload = r.Day
		if r.Policy == nil {
			fail("%s: policy is required", where)
		} else if err := policy.Validate(r.Policy, env); err != nil {
			errs = append(errs, fmt.Errorf("scenario: %s: %w", where, err))
		}
	}
	return errors.Join(errs...)
}

// fleetConfig maps the fleet topology onto the substrate's config.
func (s *Spec) fleetConfig() fleet.Config {
	return fleet.Config{
		Seed:                s.Seed,
		InitialTables:       s.Fleet.InitialTables,
		Databases:           s.Fleet.Databases,
		QuotaObjectsPerDB:   s.Fleet.QuotaObjectsPerDB,
		TablesPerMonth:      s.Fleet.TablesPerMonth,
		InitialTinyFraction: s.Fleet.InitialTinyFraction,
		DailyDriftProb:      s.Fleet.DailyDriftProb,
		DailyWriteProb:      s.Fleet.DailyWriteProb,
	}
}

// policySpec returns the scenario's base policy (DefaultSpec when
// unset).
func (s *Spec) policySpec() *policy.Spec {
	if s.Policy != nil {
		return s.Policy
	}
	return policy.DefaultSpec()
}

// restartsOn reports whether a kill/restart fault is scheduled for the
// start of day.
func (s *Spec) restartsOn(day int) bool {
	if s.Faults != nil {
		for _, r := range s.Faults.Restarts {
			if r.Day == day {
				return true
			}
		}
	}
	return false
}
