package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"autocomp/internal/lstlog"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// Lake is one long-lived fleet under a policy: the day loop the
// daemon's tenants and the scenario engine both run. It holds the
// fleet, its spec-compiled service, the count of completed cycles and,
// when the policy's storage section selects the log backend, the store
// the lake persists itself to after every cycle and restores from when
// it is opened. A Lake is not safe for concurrent use.
type Lake struct {
	name  string
	opts  SpecRunOptions
	fleet *Fleet
	svc   *SpecService
	day   int
	// store is the durable backend, nil under the memory backend.
	store *lstlog.Store
}

// lakeState is a lake's persisted state: the fleet snapshot (virtual
// time and RNG positions included) plus the completed-cycle count. One
// file per lake under <root>/tenants/<name>/fleet.json, written
// atomically after every completed cycle, so a SIGKILL at any instant
// leaves either the previous or the current cycle's state, never a
// torn one.
type lakeState struct {
	Name  string `json:"name"`
	Day   int    `json:"day"`
	Fleet *State `json:"fleet"`
}

// lakeModel is the compaction model every lake runs its jobs under.
var lakeModel = DefaultModel(512 * storage.MB)

// ValidationEnv is the environment a spec bound for a lake validates
// against: the lake model's pricing constants without a clock, so
// validating never touches a running lake.
func ValidationEnv() policy.Env {
	return policy.Env{
		TargetFileSize:      lakeModel.TargetFileSize,
		ExecutorMemoryGB:    lakeModel.ExecutorMemoryGB,
		RewriteBytesPerHour: lakeModel.RewriteBytesPerHour,
	}
}

// OpenLake builds the lake called name: a fleet from cfg at day 0 with
// spec compiled against it under opts. When spec selects the log
// backend and the store holds the lake's state, the lake is restored
// from it and spec compiled again against the restored fleet.
// Compilation consumes no RNG draws, so a restored lake's next cycle is
// byte-identical to the one an uninterrupted lake would have run.
func OpenLake(name string, cfg Config, spec *policy.Spec, opts SpecRunOptions) (*Lake, error) {
	l := &Lake{name: name, opts: opts, fleet: New(cfg, sim.NewClock())}
	if err := l.SetPolicy(spec); err != nil {
		return nil, err
	}
	if l.store == nil {
		return l, nil
	}
	st, err := l.load()
	if err != nil {
		return nil, err
	}
	if st == nil {
		return l, nil
	}
	f, err := Restore(st.Fleet, sim.NewClock())
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	l.fleet, l.day = f, st.Day
	if err := l.SetPolicy(spec); err != nil {
		return nil, err
	}
	return l, nil
}

// SetPolicy compiles spec against the lake's fleet, swaps the running
// service and opens the store spec's storage section names (none under
// the memory backend), so a reload can move a lake between backends at
// a cycle boundary. On error the running service stays in place.
func (l *Lake) SetPolicy(spec *policy.Spec) error {
	svc, err := l.fleet.ServiceFromSpec(spec, lakeModel, l.opts)
	if err != nil {
		return err
	}
	store := l.store
	switch st := svc.Compiled.Storage; {
	case !st.Durable():
		store = nil
	case store == nil || store.Root() != st.Root:
		if store, err = lstlog.Open(lstlog.Config{Root: st.Root, Fsync: st.Fsync}); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
	}
	l.svc, l.store = svc, store
	return nil
}

// Step runs one day: the fleet's organic growth, then between (the
// caller's hook on the grown fleet; nil for none), one
// observe→decide→act cycle, and on the log backend the persist of the
// lake's state. Once the fleet clock reaches MaxDays days, Step
// returns an error and leaves the lake as it was.
func (l *Lake) Step(between func(*Fleet)) (Cycle, error) {
	if now := l.fleet.clock.Now(); now >= MaxDays*24*time.Hour {
		return Cycle{}, fmt.Errorf("day %d cycle: the fleet clock at %v has reached MaxDays (%d days)", l.day+1, now, MaxDays)
	}
	l.fleet.AdvanceDay()
	if between != nil {
		between(l.fleet)
	}
	cyc, err := l.svc.RunCycle()
	if err != nil {
		return cyc, fmt.Errorf("day %d cycle: %w", l.day+1, err)
	}
	l.day++
	return cyc, l.persist()
}

// Fleet returns the lake's fleet.
func (l *Lake) Fleet() *Fleet { return l.fleet }

// Service returns the running spec-compiled service.
func (l *Lake) Service() *SpecService { return l.svc }

// Spec returns the running policy spec.
func (l *Lake) Spec() *policy.Spec { return l.svc.Compiled.Spec }

// Day returns the number of completed cycles.
func (l *Lake) Day() int { return l.day }

// stateRel is the lake's state file, relative to the store root.
func (l *Lake) stateRel() string { return "tenants/" + l.name + "/fleet.json" }

// load reads the lake's persisted state, nil on a cold start. State
// persisted under a different fleet configuration is rejected loudly:
// silently re-simulating from day 0 under the old name would masquerade
// as a recovery.
func (l *Lake) load() (*lakeState, error) {
	b, err := l.store.ReadSubFile(l.stateRel())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	var st lakeState
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("restore: parse %s: %w", l.stateRel(), err)
	}
	if st.Name != l.name || st.Fleet == nil {
		return nil, fmt.Errorf("restore: %s does not hold this lake's state", l.stateRel())
	}
	if st.Fleet.Config != l.fleet.cfg {
		return nil, fmt.Errorf("restore: persisted state was built from a different fleet config; remove %s or restore the config", l.stateRel())
	}
	return &st, nil
}

// persist writes the lake's state to its store, if it has one,
// streaming it into the store's atomic temp file. A failed encode or
// write leaves the previous cycle's state file in place.
func (l *Lake) persist() error {
	if l.store == nil {
		return nil
	}
	err := l.store.StreamSubFile(l.stateRel(), func(w io.Writer) error {
		return writeLakeState(w, l.name, l.day, l.fleet)
	})
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}
