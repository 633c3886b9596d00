package fleet

import (
	"autocomp/internal/changefeed"
	"autocomp/internal/core"
)

// IncrOptions parameterizes the incremental observation plane over a
// fleet.
type IncrOptions struct {
	// Trigger is the per-table trigger policy (zero value = every
	// commit, which preserves full-scan decision parity).
	Trigger changefeed.TriggerPolicy
	// Triggers, when set, resolves the trigger policy per table (e.g.
	// the policy plane's layered source) and takes precedence over
	// Trigger.
	Triggers changefeed.PolicyFunc
	// ReconcileEvery runs a reconciling full scan every Nth cycle to
	// catch missed events (0 = cold-start full scan only).
	ReconcileEvery int
	// DecideShards stripes the feed's per-table index to match a sharded
	// decide plane's shard count (values <= 1 build a single-stripe
	// feed). The wired generator then serves each decide shard from its
	// own stripe with no cross-shard contention.
	DecideShards int
}

// IncrementalConfig wires a fresh changefeed into cfg: the connector
// serves the dirty set, the generator retains clean tables' candidates,
// and the observer answers from the version-keyed cache. It attaches
// the feed to the fleet; any core.Config compiled against this
// fleet (data-only, unified, custom weights) can be incrementalized this
// way.
func (f *Fleet) IncrementalConfig(cfg core.Config, opts IncrOptions) (core.Config, *changefeed.Feed) {
	triggers := opts.Triggers
	if triggers == nil {
		triggers = changefeed.StaticTriggers(opts.Trigger)
	}
	feed := changefeed.NewFeedSharded(triggers, opts.ReconcileEvery, opts.DecideShards)
	f.AttachChangefeed(feed)
	cfg.Connector = feed.Connector(cfg.Connector)
	cfg.Generator = feed.Generator(cfg.Generator)
	cfg.Observer = feed.Observer(cfg.Observer, f.QuotaUtilization)
	// Terminal conflicts leave the table unmaintained without a state
	// change, so no commit event re-dirties it; reconsider it next
	// cycle anyway. (Successful maintenance publishes its own event.)
	// Feedback runs on every driver — the serial act phase and the
	// scheduled execution plane both fold their results into a report —
	// so this is the single conflict-redirty mechanism.
	cfg.OnReport = append(cfg.OnReport, func(rep *core.Report) {
		for _, cr := range rep.Results {
			if cr.Result.Conflict {
				feed.Tracker.Redirty(cr.Candidate.Table.FullName())
			}
		}
	})
	return cfg, feed
}
