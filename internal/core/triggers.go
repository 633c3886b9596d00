package core

import (
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/sim"
)

// PeriodicTrigger runs a service on a schedule — the pull-based standalone
// deployment of §5 (and the paper's production setup: once daily, §7).
type PeriodicTrigger struct {
	Service *Service
	Every   time.Duration
	// Until bounds the schedule (exclusive).
	Until time.Duration
	// OnReport receives each cycle's report (may be nil).
	OnReport func(*Report, error)
}

// Install schedules the trigger on an event queue; the first run fires
// one period from now.
func (p *PeriodicTrigger) Install(q *sim.EventQueue) {
	if p.Every <= 0 {
		panic("core: PeriodicTrigger.Every must be positive")
	}
	q.ScheduleEvery(p.Every, p.Until, func() {
		rep, err := p.Service.RunOnce()
		if p.OnReport != nil {
			p.OnReport(rep, err)
		}
	})
}

// HookMode selects what an optimize-after-write hook does when a trait
// crosses its threshold (§5).
type HookMode int

// Hook modes.
const (
	// Immediate triggers compaction right away, keeping the table
	// optimal at the price of an unbounded compaction budget.
	Immediate HookMode = iota
	// NotifyOnly decouples the hook from scheduling: it informs the
	// auto-compaction service that the candidate's traits need
	// recalculation, leaving execution to a later controlled run.
	NotifyOnly
)

// AfterWriteHook implements optimize-after-write (§5): engines call
// OnWrite after modifying a table; the hook evaluates a single trait
// against a threshold and either compacts immediately or notifies.
type AfterWriteHook struct {
	Observer  Observer
	Trait     Trait
	Threshold float64
	Mode      HookMode
	// Runner executes immediate compactions.
	Runner Runner
	// Notify receives candidates in NotifyOnly mode.
	Notify func(c *Candidate)
}

// HookResult reports one OnWrite evaluation.
type HookResult struct {
	Candidate  *Candidate
	TraitValue float64
	Triggered  bool
	// Result is set when Mode is Immediate and the hook triggered.
	Result *compaction.Result
}

// OnWrite evaluates the hook against the freshly written table.
func (h *AfterWriteHook) OnWrite(t Table) (HookResult, error) {
	c := &Candidate{Table: t, Scope: ScopeTable}
	stats, err := h.Observer.Observe(c)
	if err != nil {
		return HookResult{}, err
	}
	c.Stats = stats
	set, _ := NewTraitSet([]Trait{h.Trait}) // one trait cannot repeat
	Orient([]*Candidate{c}, set)
	v := c.Trait(set.Slot(h.Trait.Name()))
	hr := HookResult{Candidate: c, TraitValue: v}
	if v < h.Threshold {
		return hr, nil
	}
	hr.Triggered = true
	switch h.Mode {
	case Immediate:
		if h.Runner != nil {
			res := h.Runner.Run(c)
			hr.Result = &res
		}
	case NotifyOnly:
		if h.Notify != nil {
			h.Notify(c)
		}
	}
	return hr, nil
}
