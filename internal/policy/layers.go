package policy

import (
	"autocomp/internal/catalog"
	"autocomp/internal/changefeed"
	"autocomp/internal/core"
	"autocomp/internal/maintenance"
)

// CatalogReader serves the control plane's stored table policies.
// *catalog.ControlPlane implements it.
type CatalogReader interface {
	// EffectivePolicies returns the table's stored policies; only
	// operator-set fields are non-zero. An error means the catalog does
	// not know the table — the catalog layer contributes nothing.
	EffectivePolicies(db, name string) (catalog.TablePolicies, error)
}

// Source resolves the effective per-table maintenance and trigger
// policies through the override layers, most specific winning
// field-wise:
//
//	base spec → spec per-database patch → spec per-table patch
//	          → catalog table policies
//
// The spec layers travel with the policy file; the catalog layer is the
// control plane's live, operator-set state (present only when a catalog
// was bound at compile time). Source implements
// maintenance.PolicySource, and TriggerFor is a changefeed.PolicyFunc.
type Source struct {
	spec *Spec
	cat  CatalogReader
}

// NewSource builds a layered resolver for spec; cat may be nil.
func NewSource(spec *Spec, cat CatalogReader) *Source {
	return &Source{spec: spec, cat: cat}
}

// policy converts the base maintenance section wholesale (zeros mean
// the action family is off, exactly like maintenance.Policy).
func (m *MaintenanceSpec) policy() maintenance.Policy {
	if m == nil {
		return maintenance.Policy{}
	}
	return maintenance.Policy{
		RetainSnapshots:         m.RetainSnapshots,
		CheckpointEveryVersions: m.CheckpointEveryVersions,
		MinManifestSurplus:      m.MinManifestSurplus,
	}
}

// overlay applies the patch's non-zero fields; negative values are
// carried through (they disable the action for the matched scope).
func (m *MaintenanceSpec) overlay(p *maintenance.Policy) {
	if m == nil {
		return
	}
	if m.RetainSnapshots != 0 {
		p.RetainSnapshots = m.RetainSnapshots
	}
	if m.CheckpointEveryVersions != 0 {
		p.CheckpointEveryVersions = m.CheckpointEveryVersions
	}
	if m.MinManifestSurplus != 0 {
		p.MinManifestSurplus = m.MinManifestSurplus
	}
}

// overlay applies the patch's non-zero trigger fields.
func (t *TriggerSpec) overlay(p *changefeed.TriggerPolicy) {
	if t == nil {
		return
	}
	if t.EveryCommits != 0 {
		p.EveryCommits = t.EveryCommits
	}
	if t.BytesWritten != 0 {
		p.BytesWritten = t.BytesWritten
	}
}

// overlayCatalogPolicy applies the positive fields of a stored catalog
// policy onto a maintenance policy (the catalog cannot disable an action
// family; that is done in the spec).
func overlayCatalogPolicy(p *maintenance.Policy, pol catalog.TablePolicies) {
	if pol.RetainSnapshots > 0 {
		p.RetainSnapshots = pol.RetainSnapshots
	}
	if pol.CheckpointEveryVersions > 0 {
		p.CheckpointEveryVersions = pol.CheckpointEveryVersions
	}
}

// overlayCatalogTrigger applies the positive trigger fields of a stored
// catalog policy.
func overlayCatalogTrigger(p *changefeed.TriggerPolicy, pol catalog.TablePolicies) {
	if pol.TriggerEveryCommits > 0 {
		p.EveryCommits = pol.TriggerEveryCommits
	}
	if pol.TriggerBytesWritten > 0 {
		p.BytesWritten = pol.TriggerBytesWritten
	}
}

// PolicyFor implements maintenance.PolicySource with layered resolution.
func (s *Source) PolicyFor(db, name string) maintenance.Policy {
	out := s.spec.Maintenance.policy()
	if p, ok := s.spec.Databases[db]; ok && p != nil {
		p.Maintenance.overlay(&out)
	}
	if p, ok := s.spec.Tables[db+"."+name]; ok && p != nil {
		p.Maintenance.overlay(&out)
	}
	if s.cat != nil {
		if pol, err := s.cat.EffectivePolicies(db, name); err == nil {
			overlayCatalogPolicy(&out, pol)
		}
	}
	return out
}

// TriggerFor is a changefeed.PolicyFunc with the same layering.
func (s *Source) TriggerFor(t core.Table) changefeed.TriggerPolicy {
	var out changefeed.TriggerPolicy
	s.spec.Trigger.overlay(&out)
	db, name := t.Database(), t.Name()
	if p, ok := s.spec.Databases[db]; ok && p != nil {
		p.Trigger.overlay(&out)
	}
	if p, ok := s.spec.Tables[db+"."+name]; ok && p != nil {
		p.Trigger.overlay(&out)
	}
	if s.cat != nil {
		if pol, err := s.cat.EffectivePolicies(db, name); err == nil {
			overlayCatalogTrigger(&out, pol)
		}
	}
	return out
}
