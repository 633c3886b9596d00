// Command autocompd runs AutoComp as a serving daemon (§5's pull
// deployment, §7's shared service): a management plane hosting one or
// more tenants, each an isolated simulated lake — a fleet of tables
// accreting small files (and per-commit metadata) while the tenant's
// pipeline wakes on its schedule, decides, and maintains within its
// budget, printing one line per cycle with a per-action breakdown.
//
// The flags describe the `default` tenant, so a pre-management-plane
// command line behaves exactly as before. With -listen the daemon also
// serves the HTTP management API (docs/management.md): create more
// tenants, push policy specs over the wire, and submit scenario runs —
// alongside the read-only telemetry endpoints (/metrics, /statusz).
//
// The pipeline is policy-driven: the daemon compiles a declarative
// policy spec (internal/policy) into its observe→decide→act
// configuration. Without -policy the spec is assembled from the flags
// (unified maintenance with an 8-worker execution plane by default);
// with -policy file.json the spec comes from the file and the knob
// flags (-k, -budget-tbhr, -workers, -shards, -shard-budget-tbhr,
// -decide-shards, -decide-workers, -incremental, -trigger-commits,
// -reconcile-every, -retain-snapshots,
// -checkpoint-every) act as overrides when set explicitly — the
// structural flags (-unified, -quota-adaptive) do not apply to a file
// and are reported as ignored. The
// policy file is hot-reloadable: between cycles the daemon re-reads it,
// and a valid edit atomically replaces the running pipeline without a
// restart (an invalid edit is reported once and the old policy stays in
// force). PUT /api/tenants/default/policy stages an edit the same way.
//
// Spec sections map to planes: a "trigger" section makes observation
// commit-event-driven (only dirty tables are re-observed); an
// "execution" section runs the act phase on the concurrent worker pool
// with per-table leases, optimistic commit retry, and sharded GBHr
// budgets; a "maintenance" section ranks snapshot expiry, metadata
// checkpointing, and manifest rewriting against data compaction in one
// MOOP under the same budget.
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight tenant
// cycles drain within -drain-timeout, the HTTP server stops accepting,
// and the -trace JSONL stream is flushed and closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/policy"
	"autocomp/internal/server"
	"autocomp/internal/storage"
	"autocomp/internal/telemetry"
	"autocomp/internal/tenant"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	tables := flag.Int("tables", 1000, "fleet size")
	days := flag.Int("days", 14, "days to simulate (one cycle per day)")
	listen := flag.String("listen", "", "serve the management API (/api/tenants) and telemetry (/metrics, /statusz, /healthz, /debug/pprof) on this address (e.g. :9090; empty = no HTTP plane); the daemon keeps serving after the run completes")
	tracePath := flag.String("trace", "", "append per-cycle decision-trace events to this file as JSON lines")
	policyPath := flag.String("policy", "", "policy spec file (JSON); pipeline flags become overrides and the file hot-reloads between cycles")
	scenariosDir := flag.String("scenarios", "examples/scenarios", "directory where the management API resolves scenario runs submitted by name")
	tuneWorkers := flag.Int("tune-workers", 0, "evaluation pool size for /api/tune jobs (0 = GOMAXPROCS; never changes tune results)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight tenant cycles to drain")
	k := flag.Int("k", 0, "fixed top-k selection (0 = use budget)")
	budgetTBHr := flag.Float64("budget-tbhr", 50, "per-cycle compute budget (TBHr)")
	quotaAdaptive := flag.Bool("quota-adaptive", true, "use quota-adaptive MOOP weights (data-only mode)")
	unified := flag.Bool("unified", true, "rank metadata maintenance (expiry/checkpoint/manifest rewrite) in the same budget as data compaction")
	checkpointEvery := flag.Int64("checkpoint-every", 100, "commits between metadata checkpoints (unified mode)")
	retainSnapshots := flag.Int("retain-snapshots", 20, "snapshots kept by expiry (unified mode)")
	workers := flag.Int("workers", 8, "concurrent compaction job slots (0 = serial act phase)")
	shards := flag.Int("shards", 4, "GBHr budget shards for the execution plane")
	shardBudget := flag.Float64("shard-budget-tbhr", 0, "per-shard per-cycle budget (TBHr, 0 = unlimited)")
	decideShards := flag.Int("decide-shards", 0, "partition the decide phase across N table-hash shards run in parallel (byte-identical decisions; <=1 = serial decide; implies the execution plane)")
	decideWorkers := flag.Int("decide-workers", 0, "goroutines working decide shards (0 = min(decide-shards, GOMAXPROCS))")
	writerRate := flag.Float64("writer-rate", 30, "live writer commits/hour racing the compactor (scheduled mode)")
	incremental := flag.Bool("incremental", false, "commit-event-driven observation: re-observe only dirty tables")
	writeFrac := flag.Float64("write-frac", 1, "per-table probability of writing on a given day, in (0,1); values outside that range (including 0) mean every table writes daily")
	triggerCommits := flag.Int64("trigger-commits", 1, "commits before a table turns dirty (incremental mode; 1 preserves full-scan decision parity)")
	reconcileEvery := flag.Int("reconcile-every", 0, "full-scan reconciliation every N cycles (incremental mode, 0 = never)")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var traceFile *os.File
	if *tracePath != "" {
		tf, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		traceFile = tf
		telemetry.DefaultTracer().SetWriter(tf)
	}

	model := fleet.DefaultModel(512 * storage.MB)
	// Validation environment for the policy file: the pricing constants
	// without a live clock (the default tenant owns its clock; compile
	// against the fleet happens inside the tenant at swap time).
	env := policy.Env{
		TargetFileSize:      model.TargetFileSize,
		ExecutorMemoryGB:    model.ExecutorMemoryGB,
		RewriteBytesPerHour: model.RewriteBytesPerHour,
	}

	// flagSpec assembles the spec the flags describe — the same pipeline
	// the daemon always ran, now expressed as policy data.
	flagSpec := func() *policy.Spec {
		var sp *policy.Spec
		if *unified {
			sp = policy.DefaultSpec()
			sp.Maintenance.RetainSnapshots = *retainSnapshots
			sp.Maintenance.CheckpointEveryVersions = *checkpointEvery
		} else {
			sp = policy.DefaultDataSpec(*quotaAdaptive)
		}
		sp.Execution = nil
		sp.Selector = nil
		sp.Trigger = nil
		applyFlagOverrides(sp, map[string]bool{
			"k": true, "budget-tbhr": true, "workers": true, "shards": true,
			"shard-budget-tbhr": true, "incremental": true,
			"trigger-commits": *incremental, "reconcile-every": *incremental,
			"decide-shards":  set["decide-shards"],
			"decide-workers": set["decide-workers"],
		}, *k, *budgetTBHr, *workers, *shards, *shardBudget,
			*incremental, *triggerCommits, *reconcileEvery, 0, 0,
			*decideShards, *decideWorkers)
		return sp
	}

	// Load the default tenant's policy: from file (flags layered on top)
	// or from flags.
	var watcher *policy.Watcher
	var spec *policy.Spec
	var err error
	provenance := "flags"
	if *policyPath != "" {
		// Structural flags choose which built-in spec the flags assemble;
		// a policy file already states the pipeline's structure, so they
		// cannot act as overrides on it.
		for _, structural := range []string{"unified", "quota-adaptive"} {
			if set[structural] {
				fmt.Printf("autocompd: -%s has no effect with -policy (the file defines the pipeline structure)\n", structural)
			}
		}
		watcher, spec, err = policy.NewWatcher(*policyPath, env)
		if err != nil {
			log.Fatal(err)
		}
		spec = spec.Clone()
		applyFlagOverrides(spec, set, *k, *budgetTBHr, *workers, *shards,
			*shardBudget, *incremental, *triggerCommits, *reconcileEvery,
			*retainSnapshots, *checkpointEvery, *decideShards, *decideWorkers)
		provenance = "file:" + *policyPath
	} else {
		spec = flagSpec()
	}

	opts := tenant.Options{
		// The default tenant emits on the process-wide tracer, so -trace,
		// /statusz, and the log lines keep their single-lake meaning.
		Tracer:     telemetry.DefaultTracer(),
		Provenance: provenance,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
		OnCycle: func(ev telemetry.CycleEvent, _ *core.Report) {
			// The cycle's telemetry event is the log line: one snapshot
			// renders the log, the JSONL trace, /statusz, and /metrics, so
			// they cannot drift apart.
			fmt.Println(ev.String())
		},
	}
	if watcher != nil {
		// Hot reload: a changed, valid policy file swaps the pipeline in
		// atomically between cycles; a bad edit keeps the current policy.
		opts.PollPolicy = func() (*policy.Spec, bool, error) {
			sp, changed, err := watcher.Poll()
			if err != nil || !changed {
				return nil, false, err
			}
			sp = sp.Clone()
			applyFlagOverrides(sp, set, *k, *budgetTBHr, *workers, *shards,
				*shardBudget, *incremental, *triggerCommits, *reconcileEvery,
				*retainSnapshots, *checkpointEvery, *decideShards, *decideWorkers)
			return sp, true, nil
		}
	}

	mgr := tenant.NewManager()
	def, err := mgr.Create(tenant.Config{
		Name:                 "default",
		Seed:                 *seed,
		Days:                 *days,
		InitialTables:        *tables,
		DailyWriteProb:       *writeFrac,
		WriterCommitsPerHour: *writerRate,
	}, spec, opts)
	if err != nil {
		log.Fatal(err)
	}

	st := def.Status()
	fmt.Printf("autocompd: %d tables, %d files, %d metadata objects, %.0f%% under 128MB\n",
		st.Fleet.Tables, st.Fleet.Files, st.Fleet.MetaObjects, 100*st.Fleet.TinyFrac)
	fmt.Printf("policy: %s%s\n", st.Policy, map[bool]string{true: " (from " + *policyPath + ", hot-reloadable)", false: " (from flags)"}[*policyPath != ""])
	printPlanes(def.Service())

	var srv *httpServer
	if *listen != "" {
		mgmt := &server.Server{
			Mgr:          mgr,
			ScenariosDir: *scenariosDir,
			Logf:         opts.Logf,
			TuneWorkers:  *tuneWorkers,
		}
		status := func() StatusSnapshot { return statusSnapshot(def, *policyPath) }
		srv, err = serveTelemetry(*listen, status, mgmt.Register)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("telemetry: listening on %s (/metrics /statusz /healthz /debug/pprof /api/tenants)\n", srv.addr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := mgr.Start(def); err != nil {
		log.Fatal(err)
	}

	var runErr error
	select {
	case <-def.Done():
		runErr = def.Err()
		if runErr == nil && *listen != "" {
			fmt.Println("autocompd: run complete; still serving telemetry (interrupt to exit)")
			<-ctx.Done()
			fmt.Println("autocompd: signal received; draining")
		}
	case <-ctx.Done():
		fmt.Println("autocompd: signal received; draining")
	}
	stop()

	// Graceful shutdown: drain in-flight tenant cycles, stop the HTTP
	// plane, flush the decision trace.
	if err := mgr.Shutdown(*drainTimeout); err != nil {
		fmt.Printf("autocompd: %v\n", err)
	}
	if srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		_ = srv.srv.Shutdown(sctx)
		cancel()
	}
	if traceFile != nil {
		telemetry.DefaultTracer().SetWriter(nil)
		if err := traceFile.Close(); err != nil {
			fmt.Printf("autocompd: closing trace: %v\n", err)
		}
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
}

// printPlanes reports which planes the compiled policy enabled.
func printPlanes(svc *fleet.SpecService) {
	if svc.Sched != nil {
		sc := svc.Compiled.Sched
		fmt.Printf("execution plane: %d workers over %d shards\n", sc.Workers, sc.Shards)
	}
	if svc.Compiled.DecideShards > 1 {
		fmt.Printf("decide plane: sharded over %d shards\n", svc.Compiled.DecideShards)
	}
	if svc.Feed != nil {
		tr := svc.Compiled.Trigger
		fmt.Printf("observation plane: incremental (trigger every %d commits, reconcile every %d cycles)\n",
			tr.EveryCommits, svc.Compiled.ReconcileEvery)
	}
	if st := svc.Compiled.Storage; st.Durable() {
		fsync := st.Fsync
		if fsync == "" {
			fsync = "none"
		}
		fmt.Printf("storage plane: durable log at %s (fsync %s)\n", st.Root, fsync)
	}
}

// applyFlagOverrides layers the explicitly set pipeline flags onto a
// spec: a -policy file states the intent, flags adjust it for one run.
func applyFlagOverrides(sp *policy.Spec, set map[string]bool,
	k int, budgetTBHr float64, workers, shards int, shardBudgetTBHr float64,
	incremental bool, triggerCommits int64, reconcileEvery int,
	retainSnapshots int, checkpointEvery int64,
	decideShards, decideWorkers int) {

	if set["k"] && k > 0 {
		sp.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(k)}}
	} else if set["budget-tbhr"] {
		sp.Selector = &policy.Component{Name: "budget", Params: map[string]any{"budget_gbhr": budgetTBHr * 1024}}
	}
	if set["workers"] {
		if workers <= 0 {
			sp.Execution = nil
		} else {
			ensureExecution(sp).Workers = workers
		}
	}
	if sp.Execution != nil {
		if set["shards"] {
			sp.Execution.Shards = shards
		}
		if set["shard-budget-tbhr"] {
			sp.Execution.ShardBudgetGBHr = shardBudgetTBHr * 1024
		}
	}
	if set["decide-shards"] {
		if decideShards <= 1 {
			if sp.Execution != nil {
				sp.Execution.DecideShards, sp.Execution.DecideWorkers = 0, 0
			}
		} else {
			ensureExecution(sp).DecideShards = decideShards
		}
	}
	if set["decide-workers"] && sp.Execution != nil && sp.Execution.DecideShards > 1 {
		sp.Execution.DecideWorkers = decideWorkers
	}
	if set["incremental"] {
		if incremental {
			ensureTrigger(sp)
		} else {
			sp.Trigger = nil
		}
	}
	if set["trigger-commits"] && sp.Trigger != nil {
		ensureTrigger(sp).EveryCommits = triggerCommits
	}
	if set["reconcile-every"] && sp.Trigger != nil {
		ensureTrigger(sp).ReconcileEvery = reconcileEvery
	}
	if sp.Maintenance != nil {
		if set["retain-snapshots"] {
			sp.Maintenance.RetainSnapshots = retainSnapshots
		}
		if set["checkpoint-every"] {
			sp.Maintenance.CheckpointEveryVersions = checkpointEvery
		}
	}
}

func ensureExecution(sp *policy.Spec) *policy.ExecutionSpec {
	if sp.Execution == nil {
		sp.Execution = &policy.ExecutionSpec{Workers: 8, Shards: 4}
	}
	return sp.Execution
}

func ensureTrigger(sp *policy.Spec) *policy.TriggerSpec {
	if sp.Trigger == nil {
		sp.Trigger = &policy.TriggerSpec{EveryCommits: 1}
	}
	return sp.Trigger
}
