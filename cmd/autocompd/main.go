// Command autocompd runs AutoComp as a serving daemon (§5's pull
// deployment, §7's shared service): a management plane hosting one or
// more tenants, each an isolated simulated lake — a fleet of tables
// accreting small files (and per-commit metadata) while the tenant's
// pipeline wakes on its schedule, decides, and maintains within its
// budget, printing one line per cycle with a per-action breakdown.
//
// The flags describe the `default` tenant's lake (-seed, -tables,
// -days, -write-frac, -writer-rate) and the daemon's operation. With
// -listen the daemon also serves the HTTP management API
// (docs/management.md): create more tenants, push policy specs over the
// wire, and submit scenario runs — alongside the read-only telemetry
// endpoints (/metrics, /statusz).
//
// The pipeline is policy-driven, and the policy spec (internal/policy)
// is its only input: the daemon compiles the spec into its
// observe→decide→act configuration. -policy file.json names the spec;
// without it the default tenant runs policy.DefaultSpec(), which
// examples/policies/default.json holds on disk (unified maintenance on
// an 8-worker execution plane). The policy file is hot-reloadable:
// between cycles the daemon re-reads it, and a valid edit atomically
// replaces the running pipeline without a restart (an invalid edit is
// reported once and the old policy stays in force). PUT
// /api/tenants/default/policy stages an edit the same way.
//
// Spec sections map to planes: a "trigger" section makes observation
// commit-event-driven (only dirty tables are re-observed); an
// "execution" section runs the act phase on the concurrent worker pool
// with per-table leases, optimistic commit retry, and sharded GBHr
// budgets, and its decide_shards field shards the decide phase; a
// "maintenance" section ranks snapshot expiry, metadata checkpointing,
// and manifest rewriting against data compaction in one MOOP under the
// same budget.
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
	"autocomp/internal/telemetry"
	"autocomp/internal/tenant"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	tables := flag.Int("tables", 1000, "fleet size")
	days := flag.Int("days", 14, "days to simulate (one cycle per day)")
	listen := flag.String("listen", "", "serve the management API (/api/tenants) and telemetry (/metrics, /statusz, /healthz, /debug/pprof) on this address (e.g. :9090; empty = no HTTP plane); the daemon keeps serving after the run completes")
	tracePath := flag.String("trace", "", "append per-cycle decision-trace events to this file as JSON lines")
	policyPath := flag.String("policy", "", "policy spec file (JSON) the default tenant's pipeline compiles from, hot-reloaded between cycles (empty = the built-in default spec, examples/policies/default.json)")
	scenariosDir := flag.String("scenarios", "examples/scenarios", "directory where the management API resolves scenario runs submitted by name")
	tuneWorkers := flag.Int("tune-workers", 0, "evaluation pool size for /api/tune jobs (0 = GOMAXPROCS; never changes tune results)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight tenant cycles to drain")
	writerRate := flag.Float64("writer-rate", 30, "live writer commits/hour racing the compactor (scheduled mode)")
	writeFrac := flag.Float64("write-frac", 1, "per-table probability of writing on a given day, in (0,1); values outside that range (including 0) mean every table writes daily")
	flag.Parse()

	var traceFile *os.File
	if *tracePath != "" {
		tf, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		traceFile = tf
		telemetry.DefaultTracer().SetWriter(tf)
	}

	opts := tenant.Options{
		// The default tenant emits on the process-wide tracer, so -trace,
		// /statusz, and the log lines keep their single-lake meaning.
		Tracer:     telemetry.DefaultTracer(),
		Provenance: "builtin",
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
	// The default tenant's policy: the -policy file, validated here and
	// compiled against the fleet inside the tenant, or (nil) the
	// built-in default spec.
	var spec *policy.Spec
	source := "built-in default"
	if *policyPath != "" {
		watcher, sp, err := policy.NewWatcher(*policyPath, fleet.ValidationEnv())
		if err != nil {
			log.Fatal(err)
		}
		// Hot reload: a changed, valid policy file swaps the pipeline in
		// atomically between cycles; a bad edit keeps the current policy.
		spec, opts.PollPolicy = sp, watcher.Poll
		opts.Provenance, source = "file:"+*policyPath, "from "+*policyPath+", hot-reloadable"
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
	fmt.Printf("policy: %s (%s)\n", st.Policy, source)
	printPlanes(def.Service())

	var srv *httpServer
	if *listen != "" {
		mgmt := &server.Server{
			Mgr:          mgr,
			ScenariosDir: *scenariosDir,
			Logf:         opts.Logf,
			TuneWorkers:  *tuneWorkers,
		}
		status := func() telemetry.StatusSnapshot { return statusSnapshot(def, *policyPath) }
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
