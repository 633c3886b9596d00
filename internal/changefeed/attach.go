package changefeed

import (
	"autocomp/internal/catalog"
	"autocomp/internal/lst"
)

// lstHook turns lst commit events into calls to publish.
func lstHook(publish func(Event)) lst.CommitHook {
	return func(e lst.CommitEvent) {
		ev := Event{
			Table:       e.Table.FullName(),
			Ref:         e.Table,
			Commits:     1,
			Maintenance: e.Maintenance,
		}
		if e.Snapshot != nil {
			ev.Bytes = e.Snapshot.AddedBytes
		}
		publish(ev)
	}
}

// AttachCatalog calls publish (a feed's Publish) for every commit in the
// control plane's lake — existing tables and tables created later — and
// with a Dropped event for every drop, so the feed forgets the table.
func AttachCatalog(publish func(Event), cp *catalog.ControlPlane) {
	cp.SetCommitHook(lstHook(publish))
	cp.SetDropHook(func(db, name string) {
		publish(Event{Table: db + "." + name, Dropped: true})
	})
}
