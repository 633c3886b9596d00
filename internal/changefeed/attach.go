package changefeed

import (
	"autocomp/internal/catalog"
	"autocomp/internal/lst"
)

// lstHook adapts lst commit events onto the bus.
func lstHook(bus *Bus) lst.CommitHook {
	return func(e lst.CommitEvent) {
		ev := Event{
			Table:       e.Table.FullName(),
			Ref:         e.Table,
			Version:     e.Version,
			Commits:     1,
			At:          e.At,
			Maintenance: e.Maintenance,
		}
		if e.Snapshot != nil {
			ev.Bytes = e.Snapshot.AddedBytes
		}
		bus.Publish(ev)
	}
}

// AttachTable publishes one table's commits (transactions and
// maintenance operations) to bus.
func AttachTable(bus *Bus, t *lst.Table) {
	t.SetCommitHook(lstHook(bus))
}

// AttachCatalog publishes every commit in the control plane's lake —
// existing tables and tables created later — to bus, and publishes a
// Dropped event when a table is removed so subscribers forget it.
func AttachCatalog(bus *Bus, cp *catalog.ControlPlane) {
	cp.SetCommitHook(lstHook(bus))
	cp.SetDropHook(func(db, name string) {
		bus.Publish(Event{Table: db + "." + name, Dropped: true})
	})
}
