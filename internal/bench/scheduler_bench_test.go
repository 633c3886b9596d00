package bench

import (
	"fmt"
	"testing"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/fleet"
	"autocomp/internal/lst"
	"autocomp/internal/policy"
	"autocomp/internal/scheduler"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// schedulerCycle builds a fresh aged fleet and drains one scheduled
// maintenance cycle with the given worker count, returning the cycle's
// stats. Each call starts from an identical seed-1 fleet, so the ranked
// plan is the same at every worker count and the makespan trajectory is
// the pure scheduling effect.
func schedulerCycle(b *testing.B, workers int) scheduler.Stats {
	b.Helper()
	// Fixture construction (fleet build + aging) stays outside the
	// timed region: ns/op measures the scheduled cycle only.
	b.StopTimer()
	cfg := fleet.DefaultConfig()
	cfg.Seed = 1
	cfg.InitialTables = 400
	f := fleet.New(cfg, sim.NewClock())
	for d := 0; d < 3; d++ {
		f.AdvanceDay()
	}
	spec := policy.DefaultSpec()
	spec.Selector = &policy.Component{Name: "top-k", Params: map[string]any{"k": float64(100)}}
	spec.Execution = &policy.ExecutionSpec{Workers: workers, Shards: 4}
	ss, err := f.ServiceFromSpec(spec, fleet.DefaultModel(512*storage.MB),
		fleet.SpecRunOptions{WriterCommitsPerHour: 30})
	if err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	_, stats, err := ss.Sched.RunCycle()
	if err != nil {
		b.Fatal(err)
	}
	return stats
}

// BenchmarkSchedulerCycle measures wall time per scheduled cycle and
// reports the simulated makespan and throughput at each worker count, so
// the BENCH json captures the speedup trajectory (workers ∈ {1, 4, 16}).
func BenchmarkSchedulerCycle(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var last scheduler.Stats
			for i := 0; i < b.N; i++ {
				last = schedulerCycle(b, workers)
			}
			if last.Done == 0 {
				b.Fatal("no jobs completed")
			}
			b.ReportMetric(last.Makespan.Hours(), "makespan-h")
			b.ReportMetric(float64(last.Done)/last.Makespan.Hours(), "jobs/sim-h")
			b.ReportMetric(100*last.Utilization(), "util-%")
		})
	}
}

// BenchmarkSchedulerDispatch isolates the pure scheduler overhead —
// queue, leases, budget arbitration, commit bookkeeping — with zero-cost
// jobs, reporting wall microseconds per job at 2k, 8k and 32k jobs. A
// flat us/job across the job counts means dispatch cost does not grow
// with queue length; a rising one means it does. With -benchmem,
// allocs/op counts one drain: about one per job on the jobs-N rows (the
// completion event's closure), so it too should grow only with the job
// count. The jobs-N rows use
// distinct tables and no budget, so no job ever waits on a lease or a
// budget. The siblings rows queue four jobs per table, so each dispatch
// sets its table's later jobs aside behind the lease; the budget rows
// give each shard a budget of jobs/16 GBHr, which blocks admissions
// near the end and then defers about half the jobs.
func BenchmarkSchedulerDispatch(b *testing.B) {
	mkCands := func(n, perTable int) []*core.Candidate {
		cands := make([]*core.Candidate, n)
		for i := range cands {
			t := i / perTable
			cands[i] = &core.Candidate{
				Table:  benchTable{name: fmt.Sprintf("db%d.t%06d", t%32, t)},
				Traits: []float64{core.SlotComputeCost: float64(1 + i%7)},
			}
		}
		return cands
	}
	runner := core.RunnerFunc(func(c *core.Candidate) compaction.Result {
		return compaction.Result{Table: c.Table.FullName(), FilesRemoved: 5, FilesAdded: 1, GBHr: 1}
	})
	drain := func(b *testing.B, cands []*core.Candidate, cfg scheduler.Config) scheduler.Stats {
		var st scheduler.Stats
		for i := 0; i < b.N; i++ {
			clock := sim.NewClock()
			q := sim.NewEventQueue(clock)
			p := scheduler.New(cfg, runner, clock)
			p.Submit(cands)
			st = scheduler.RunSim(p, q)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(len(cands)*b.N), "us/job")
		return st
	}
	for _, jobs := range []int{2048, 8192, 32768} {
		cands := mkCands(jobs, 1)
		for _, workers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("jobs-%d/workers-%d", jobs, workers), func(b *testing.B) {
				if st := drain(b, cands, scheduler.Config{Workers: workers, Shards: 8, Seed: 1}); st.Done != jobs {
					b.Fatalf("done = %d", st.Done)
				}
			})
		}
	}
	for _, jobs := range []int{2048, 8192, 32768} {
		siblings := mkCands(jobs, 4)
		b.Run(fmt.Sprintf("siblings/jobs-%d/workers-16", jobs), func(b *testing.B) {
			if st := drain(b, siblings, scheduler.Config{Workers: 16, Shards: 8, Seed: 1}); st.Done != jobs {
				b.Fatalf("done = %d", st.Done)
			}
		})
		cands := mkCands(jobs, 1)
		b.Run(fmt.Sprintf("budget/jobs-%d/workers-16", jobs), func(b *testing.B) {
			cfg := scheduler.Config{Workers: 16, Shards: 8, ShardBudgetGBHr: float64(jobs) / 16, Seed: 1}
			if st := drain(b, cands, cfg); st.Done+st.Deferred != jobs || st.Deferred == 0 {
				b.Fatalf("done = %d, deferred = %d", st.Done, st.Deferred)
			}
		})
	}
}

// benchTable is a minimal core.Table for dispatch benchmarks.
type benchTable struct{ name string }

func (t benchTable) Database() string                       { return "db" }
func (t benchTable) Name() string                           { return t.name }
func (t benchTable) FullName() string                       { return t.name }
func (t benchTable) Spec() lst.PartitionSpec                { return lst.PartitionSpec{} }
func (t benchTable) Mode() lst.WriteMode                    { return lst.CopyOnWrite }
func (t benchTable) Prop(string) string                     { return "" }
func (t benchTable) Created() time.Duration                 { return 0 }
func (t benchTable) LastWrite() time.Duration               { return 0 }
func (t benchTable) FileCount() int                         { return 50 }
func (t benchTable) TotalBytes() int64                      { return 1 << 30 }
func (t benchTable) Partitions() []string                   { return nil }
func (t benchTable) LiveFiles() []lst.DataFile              { return nil }
func (t benchTable) FilesInPartition(string) []lst.DataFile { return nil }
