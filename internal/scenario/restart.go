package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"autocomp/internal/fleet"
	"autocomp/internal/sim"
)

// restartSnapshot is the engine state serialized across a kill/restart
// fault: the substrate's full aggregate state (which carries virtual
// time and the fleet RNG positions), the scenario-side RNG stream
// positions, and the trace accumulated so far. The active policy is NOT
// serialized — recovery re-derives it from the scenario's reload
// schedule, the way a daemon re-reads its policy file at boot.
type restartSnapshot struct {
	Day          int          `json:"day"`
	Fleet        *fleet.State `json:"fleet"`
	DropDraws    int64        `json:"drop_draws"`
	FailDraws    int64        `json:"fail_draws"`
	PatternDraws []int64      `json:"pattern_draws"`
	Cycles       []CycleTrace `json:"cycles"`
}

// patternRNG is implemented by the compiled patterns that own a random
// stream; steady and hot-skew patterns draw nothing and are stateless.
type patternRNG interface {
	drawCount() int64
	setRNG(*sim.RNG)
}

func (p *burstPattern) drawCount() int64     { return p.rng.Draws() }
func (p *burstPattern) setRNG(r *sim.RNG)    { p.rng = r }
func (p *backfillPattern) drawCount() int64  { return p.rng.Draws() }
func (p *backfillPattern) setRNG(r *sim.RNG) { p.rng = r }

// restart performs the scheduled kill/restart fault: snapshot to a real
// file on disk, tear the runtime down, read the file back, and rebuild
// everything from the serialized bytes — clock, fleet, pattern
// and fault RNG streams, and the policy-compiled service. The rebuilt
// engine's next cycle must be byte-identical to the one the
// uninterrupted engine would have run.
func (e *Engine) restart() error {
	snap := &restartSnapshot{
		Day:          e.day,
		Fleet:        e.fleet.Snapshot(),
		DropDraws:    e.dropRNG.Draws(),
		FailDraws:    e.failRNG.Draws(),
		PatternDraws: make([]int64, len(e.patterns)),
		Cycles:       e.trace.Cycles,
	}
	for i, p := range e.patterns {
		if pr, ok := p.(patternRNG); ok {
			snap.PatternDraws[i] = pr.drawCount()
		}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("scenario: restart snapshot: %w", err)
	}

	// The snapshot crosses a real process-image boundary: written to
	// disk, state discarded, read back, parsed.
	dir, err := os.MkdirTemp("", "scenario-restart-*")
	if err != nil {
		return fmt.Errorf("scenario: restart: %w", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "snapshot.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("scenario: restart: %w", err)
	}
	e.clock, e.fleet, e.svc, e.patterns = nil, nil, nil, nil
	e.dropRNG, e.failRNG = nil, nil
	read, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("scenario: restart: %w", err)
	}
	var st restartSnapshot
	if err := json.Unmarshal(read, &st); err != nil {
		return fmt.Errorf("scenario: restart snapshot parse: %w", err)
	}
	return e.reboot(&st)
}

// reboot rebuilds the engine from a parsed snapshot.
func (e *Engine) reboot(st *restartSnapshot) error {
	e.clock = sim.NewClock()
	f, err := fleet.Restore(st.Fleet, e.clock)
	if err != nil {
		return fmt.Errorf("scenario: restart: %w", err)
	}
	e.fleet = f
	e.day = st.Day
	e.trace.Cycles = st.Cycles
	e.dropRNG = sim.NewRNGAt(sim.ChildSeed(e.spec.Seed, "scenario/faults/drops"), st.DropDraws)
	e.failRNG = sim.NewRNGAt(sim.ChildSeed(e.spec.Seed, "scenario/faults/commit-failures"), st.FailDraws)
	e.patterns = buildPatterns(e.spec)
	for i, p := range e.patterns {
		pr, ok := p.(patternRNG)
		if !ok {
			continue
		}
		if i >= len(st.PatternDraws) {
			return fmt.Errorf("scenario: restart snapshot has %d pattern streams, engine has %d", len(st.PatternDraws), len(e.patterns))
		}
		label := fmt.Sprintf("scenario/pattern/%d/%s", i, e.spec.Workload[i].Kind)
		pr.setRNG(sim.NewRNGAt(sim.ChildSeed(e.spec.Seed, label), st.PatternDraws[i]))
	}
	// Re-derive the active policy: the base spec plus every reload whose
	// day has already passed (reloads apply at their own day's cycle, so
	// strictly-before the restart day).
	ps := e.spec.policySpec()
	for _, r := range e.spec.Reloads {
		if r.Day <= st.Day {
			ps = r.Policy.Clone()
		}
	}
	return e.setPolicy(ps)
}

// applyRestarts runs the kill/restart fault scheduled for the start of
// day, if any.
func (e *Engine) applyRestarts(day int) error {
	if e.spec.Faults == nil {
		return nil
	}
	for _, r := range e.spec.Faults.Restarts {
		if r.Day == day {
			return e.restart()
		}
	}
	return nil
}
