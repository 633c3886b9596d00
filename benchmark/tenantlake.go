package main

import (
	"errors"
	"fmt"

	"autocomp/internal/core"
	"autocomp/internal/policy"
	"autocomp/internal/telemetry"
	"autocomp/internal/tenant"
)

// tenantLake drives the product's own unit of work: tenant.New, then
// Tenant.StepCycle (poll → fleet.AdvanceDay → SpecService.RunCycle →
// persist) back to back — one client, one tenant, a closed loop.
type tenantLake struct {
	cfg  tenant.Config
	w    *Workload
	spec *policy.Spec
	t    *tenant.Tenant
	last cycleOut
}

func newTenantLake(w *Workload) *tenantLake {
	return &tenantLake{cfg: w.tenantConfig(), w: w}
}

func (l *tenantLake) setUp(root string) error {
	l.spec = l.w.specAt(root)
	return l.boot()
}

func (l *tenantLake) boot() error {
	t, err := tenant.New(l.cfg, l.spec, tenant.Options{OnCycle: l.onCycle})
	if err != nil {
		return err
	}
	l.t = t
	return nil
}

// onCycle keeps the cycle's report and execution counts; the digest is
// computed from them after the timed region ends.
func (l *tenantLake) onCycle(ev telemetry.CycleEvent, rep *core.Report) {
	l.last = cycleOut{
		rep:       rep,
		submitted: len(rep.Decision.Selected),
		failed:    ev.Exec.Failed + ev.Exec.Conflicted,
		tables:    ev.Fleet.Tables,
	}
}

func (l *tenantLake) cycle(bool) (cycleOut, error) {
	l.last = cycleOut{}
	if err := l.t.StepCycle(); err != nil {
		return cycleOut{}, err
	}
	if l.last.rep == nil {
		return cycleOut{}, errors.New("the tenant reported no cycle event")
	}
	return l.last, nil
}

// restart drops the running tenant and boots a new one from the same
// configuration; with the log backend, tenant.New restores the lake from
// the state the last cycle persisted.
func (l *tenantLake) restart() error {
	day := l.t.Day()
	l.t = nil
	if err := l.boot(); err != nil {
		return err
	}
	if got := l.t.Day(); got != day {
		return fmt.Errorf("restarted tenant resumed at day %d, want %d", got, day)
	}
	return nil
}

func (l *tenantLake) between() {}
