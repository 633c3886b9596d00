package tenant

import (
	"autocomp/internal/telemetry"
)

// SchedStats describes the tenant's execution plane, when the policy
// enables one.
type SchedStats struct {
	Workers int `json:"workers"`
	Shards  int `json:"shards"`
}

// Snapshot is a point-in-time view of one tenant: lifecycle, policy
// provenance, fleet state, and the planes its spec enabled. Served by
// GET /api/tenants/{t} and safe to take while the tenant runs (the
// tenant lock serializes it against cycles).
type Snapshot struct {
	Name        string `json:"name"`
	State       State  `json:"state"`
	Seed        int64  `json:"seed"`
	Day         int    `json:"day"`
	DaysPlanned int    `json:"days_planned"`
	Cycles      int64  `json:"cycles"`

	Policy      string `json:"policy"`
	Provenance  string `json:"provenance"`
	PolicyError string `json:"policy_error,omitempty"`
	Error       string `json:"error,omitempty"`

	Fleet telemetry.FleetTrace `json:"fleet"`
	// DirtySet is the incremental plane's dirty-set size (nil when the
	// policy has no trigger section).
	DirtySet *int `json:"dirty_set,omitempty"`
	// Sched describes the worker pool (nil when cycles act serially).
	Sched *SchedStats `json:"sched,omitempty"`

	// Runs counts the scenario runs the tenant keeps (see KeepRuns).
	Runs int `json:"runs"`
	// LastCycle is the most recent decision-trace event, if any.
	LastCycle *telemetry.CycleEvent `json:"last_cycle,omitempty"`
}

// Status assembles the tenant's snapshot. It holds the tenant lock, so
// the view is always a consistent cycle boundary.
func (t *Tenant) Status() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	svc := t.lake.Service()
	s := Snapshot{
		Name:        t.cfg.Name,
		State:       t.state,
		Seed:        t.cfg.Seed,
		Day:         t.lake.Day(),
		DaysPlanned: t.cfg.Days,
		Cycles:      t.tracer.Seq(),
		Policy:      t.lake.Spec().DisplayName(),
		Provenance:  t.provenance,
		PolicyError: t.policyErr,
		Fleet:       t.lake.Fleet().Summary(),
		Runs:        len(t.runs),
	}
	if t.err != nil {
		s.Error = t.err.Error()
	}
	if svc.Feed != nil {
		n := svc.Feed.Tracker.DirtyCount()
		s.DirtySet = &n
	}
	if svc.Sched != nil && svc.Compiled.HasExecution {
		s.Sched = &SchedStats{
			Workers: svc.Compiled.Sched.Workers,
			Shards:  svc.Compiled.Sched.Shards,
		}
	}
	if ev, ok := t.tracer.Last(); ok {
		s.LastCycle = &ev
	}
	return s
}
