// Package testkit consolidates the seed-substrate construction and
// decision-fingerprint helpers the end-to-end suites share — the root
// integration tests, the policy parity tests, the experiments package,
// and the scenario harness all build the same two substrates (the
// catalog-backed lake and the aggregate fleet) and compare decisions
// the same way; keeping one copy here keeps their seeds and wiring from
// drifting apart.
package testkit

import (
	"fmt"
	"strings"

	"autocomp/internal/catalog"
	"autocomp/internal/cluster"
	"autocomp/internal/core"
	"autocomp/internal/engine"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// Lake is the full catalog-substrate stack: virtual clock, seeded RNG,
// namenode, control plane, query and compaction clusters, and the query
// engine — everything an end-to-end test drives.
type Lake struct {
	Clock             *sim.Clock
	RNG               *sim.RNG
	FS                *storage.NameNode
	CP                *catalog.ControlPlane
	QueryCluster      *cluster.Cluster
	CompactionCluster *cluster.Cluster
	Engine            *engine.Engine
}

// NewLake builds the stack from one seed. Fork order (namenode first,
// engine second) is part of the deterministic contract: tests that
// pinned behaviour to a seed keep it.
func NewLake(seed int64) *Lake {
	clock := sim.NewClock()
	rng := sim.NewRNG(seed)
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, rng.Fork())
	cp := catalog.New(fs, clock)
	queryCl := cluster.New(cluster.QueryClusterConfig(), clock)
	compCl := cluster.New(cluster.CompactionClusterConfig(), clock)
	eng := engine.New(engine.DefaultConfig(), queryCl, fs, clock, rng.Fork())
	return &Lake{
		Clock:             clock,
		RNG:               rng,
		FS:                fs,
		CP:                cp,
		QueryCluster:      queryCl,
		CompactionCluster: compCl,
		Engine:            eng,
	}
}

// FleetConfig is the standard scaled fleet the parity and regression
// suites age: the production-shaped defaults at a test-sized table
// count.
func FleetConfig(seed int64, tables int) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Seed = seed
	cfg.InitialTables = tables
	return cfg
}

// NewFleet builds a fleet at day 0 on a fresh clock.
func NewFleet(seed int64, tables int) (*fleet.Fleet, *sim.Clock) {
	clock := sim.NewClock()
	return fleet.New(FleetConfig(seed, tables), clock), clock
}

// Model is the shared compaction cost model (512 MB target, production
// overhead) every suite prices against.
func Model() fleet.CompactionModel {
	return fleet.DefaultModel(512 * storage.MB)
}

// MaintenanceSpec is the unified maintenance pipeline the parity suites
// decide with: policy.DefaultSpec (default maintenance policy,
// three-objective MOOP) under a top-k selector, acting serially.
func MaintenanceSpec(k int) *policy.Spec {
	s := policy.DefaultSpec()
	s.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(k)}}
	s.Execution = nil
	return s
}

// DataSpec is the data-compaction-only production pipeline of §7
// (quota-adaptive ΔF vs GBHr MOOP) under the given selector.
func DataSpec(selector policy.Component) *policy.Spec {
	s := policy.DefaultDataSpec(true)
	s.Selector = &selector
	return s
}

// Config compiles spec against f's substrate bindings under Model and
// returns the decision-pipeline configuration, for suites that attach a
// decider or wrap components before building the service. A spec that
// fails to compile fails the test. tb names only the two methods used
// rather than testing.TB: the experiments link this package into
// benchrunner.
func Config(tb interface {
	Helper()
	Fatal(...any)
}, f *fleet.Fleet, spec *policy.Spec) core.Config {
	tb.Helper()
	comp, err := policy.Compile(spec, f.PolicyEnv(Model()), f.PolicyBindings(Model()))
	if err != nil {
		tb.Fatal(err)
	}
	return comp.Core
}

// DecisionFingerprint serializes everything a Decide() produced: the
// funnel counts, every ranked candidate with its score, and the
// selection. Two pipelines are decision-equivalent only when these bytes
// match.
func DecisionFingerprint(d *core.Decision) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v gen=%d pre=%d stats=%d trait=%d\n",
		d.At, d.Generated, d.AfterPreFilters, d.AfterStatsFilter, d.AfterTraitFilter)
	for _, c := range d.Ranked {
		fmt.Fprintf(&b, "R %s %.15g\n", c.ID(), c.Score)
	}
	for _, c := range d.Selected {
		fmt.Fprintf(&b, "S %s\n", c.ID())
	}
	return b.String()
}

// PlanID flattens a decision's selection into one comparable string —
// the coarser fingerprint for selection-level parity checks.
func PlanID(d *core.Decision) string {
	ids := make([]string, len(d.Selected))
	for i, c := range d.Selected {
		ids[i] = c.ID()
	}
	return strings.Join(ids, ",")
}

// Head returns the first n lines of s, for readable failure output.
func Head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
