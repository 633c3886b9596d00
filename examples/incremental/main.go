// Command incremental is a walkthrough of the commit-event-driven
// observation plane: it attaches a changefeed to a catalog-backed lake,
// wraps a plain AutoComp pipeline with the incremental
// connector/generator/observer trio, and prints how the dirty set,
// the stats cache, and the candidate pool evolve as tables receive
// writes — the full scan happens once, after which each decision cycle
// re-observes only the tables that actually changed.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"autocomp/internal/catalog"
	"autocomp/internal/changefeed"
	"autocomp/internal/core"
	"autocomp/internal/lst"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

func main() {
	// A small catalog-backed lake: three tables under one tenant.
	clock := sim.NewClock()
	rng := sim.NewRNG(42)
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, rng.Fork())
	cp := catalog.New(fs, clock)
	if _, err := cp.CreateDatabase("analytics", "growth", 500_000); err != nil {
		log.Fatal(err)
	}
	tables := map[string]*lst.Table{}
	for _, name := range []string{"events", "sessions", "clicks"} {
		tbl, err := cp.CreateTable("analytics", lst.TableConfig{Name: name})
		if err != nil {
			log.Fatal(err)
		}
		tables[name] = tbl
		write(tbl, 60) // fragment every table with small files
	}

	// The changefeed: every lst commit in the lake — including tables
	// created later and maintenance operations — is a call to the
	// feed's Publish, which folds the event into the table's one record:
	// its trigger, dirty flag and cached observations.
	feed := changefeed.NewFeedSharded(
		policy.NewSource(&policy.Spec{Trigger: &policy.TriggerSpec{EveryCommits: 1}}, cp).TriggerFor,
		0, // no periodic reconciliation needed in this walkthrough
		1, // one partition: this walkthrough decides serially
	)
	changefeed.AttachCatalog(feed.Publish, cp)

	// A plain AutoComp pipeline, incrementalized by wrapping its three
	// observation-side components; filters, traits, ranking, and
	// selection are untouched.
	target := int64(64 * storage.MB)
	cost := core.ComputeCost{ExecutorMemoryGB: 64, RewriteBytesPerHour: float64(3 * storage.TB)}
	svc, err := core.NewService(core.Config{
		Connector: feed.Connector(core.CatalogConnector{CP: cp}),
		Generator: feed.Generator(core.TableScopeGenerator{}),
		Observer: feed.Observer(
			core.StatsObserver{TargetFileSize: target, Quota: cp.QuotaUtilization},
			cp.QuotaUtilization,
		),
		StatsFilters: []core.Filter{core.MinSmallFiles{Min: 2}},
		Traits:       []core.Trait{core.FileCountReduction{}, cost},
		Ranker: core.MOOPRanker{Objectives: []core.Objective{
			{Trait: core.FileCountReduction{}, Weight: 0.7},
			{Trait: cost, Weight: 0.3},
		}},
	})
	if err != nil {
		log.Fatal(err)
	}

	var prev changefeed.CacheCounters
	cycle := func(label string) {
		clock.Advance(time.Hour)
		d, err := svc.Decide()
		if err != nil {
			log.Fatal(err)
		}
		scan := feed.LastScan()
		cc := feed.Cache.Counters()
		mode := "dirty-only"
		if scan.Full {
			mode = "full-scan "
		}
		names := feed.ScannedNames()
		if len(names) == 0 {
			names = []string{"(none)"}
		}
		fmt.Printf("%-34s %s scanned=%d {%s}\n", label, mode, scan.Scanned, strings.Join(names, ", "))
		fmt.Printf("%34s observes=%d cache-hits=%d pool=%d ranked=%d top=%s\n",
			"", cc.Misses-prev.Misses, cc.Hits-prev.Hits, d.Generated, len(d.Ranked), top(d))
		prev = cc
	}

	cycle("cycle 1: cold start")
	cycle("cycle 2: nothing changed")

	write(tables["events"], 40)
	cycle("cycle 3: writes to events")

	write(tables["sessions"], 10)
	write(tables["clicks"], 25)
	cycle("cycle 4: sessions + clicks wrote")

	// Maintenance operations publish too: an expiry re-dirties the
	// table so its refreshed metadata state is re-observed once.
	if _, err := tables["events"].ExpireSnapshots(1); err != nil {
		log.Fatal(err)
	}
	cycle("cycle 5: snapshot expiry on events")

	cycle("cycle 6: quiet again")

	fmt.Printf("\ntotals: %d events published, %d tables tracked, cache %d hits / %d misses\n",
		feed.Tracker.Events(), feed.Tracker.KnownCount(), prev.Hits, prev.Misses)
}

// write appends n small files to tbl in one commit.
func write(tbl *lst.Table, n int) {
	specs := make([]lst.FileSpec, n)
	for i := range specs {
		specs[i] = lst.FileSpec{SizeBytes: 8 * storage.MB}
	}
	if _, err := tbl.AppendFiles(specs); err != nil {
		log.Fatal(err)
	}
}

// top renders the highest-ranked candidate.
func top(d *core.Decision) string {
	if len(d.Ranked) == 0 {
		return "(none)"
	}
	c := d.Ranked[0]
	return fmt.Sprintf("%s (ΔF %.0f)", c.ID(), c.Trait(core.SlotFileCountReduction))
}
