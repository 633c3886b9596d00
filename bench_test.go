package autocomp

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (the "Paper section → package map" in docs/architecture.md
// places them), plus ablations over AutoComp's design choices and
// micro-benchmarks of the core primitives.
//
// Each figure benchmark renders its reproduced rows to stdout exactly
// once, so `go test -bench=. -benchmem` regenerates the paper's results
// inline. Figure benchmarks run the quick configurations; use
// cmd/benchrunner for paper scale.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"autocomp/internal/bench"
	"autocomp/internal/catalog"
	"autocomp/internal/cluster"
	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/engine"
	"autocomp/internal/experiments"
	"autocomp/internal/fleet"
	"autocomp/internal/lst"
	"autocomp/internal/metrics"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
	"autocomp/internal/workload"
)

const benchSeed = 1

var renderOnce sync.Map // experiment id → *sync.Once

// runExperiment executes one registered experiment per iteration and
// prints its rendered result once.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	if testing.Short() {
		b.Skip("experiment drivers take seconds; skipped in -short")
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchSeed, true)
		if err != nil {
			b.Fatal(err)
		}
		onceFor(id).Do(func() {
			fmt.Printf("\n==== %s ====\n%s\n", res.Title(), res.Render())
		})
	}
}

func onceFor(id string) *sync.Once {
	v, _ := renderOnce.LoadOrStore(id, &sync.Once{})
	return v.(*sync.Once)
}

// --- one benchmark per paper table/figure ---

func BenchmarkFig1FileSizeDistribution(b *testing.B) { runExperiment(b, "fig1") }
func BenchmarkFig2FleetDistribution(b *testing.B)    { runExperiment(b, "fig2") }
func BenchmarkFig3QueryPerfRestore(b *testing.B)     { runExperiment(b, "fig3") }
func BenchmarkFig6FileCount(b *testing.B)            { runExperiment(b, "fig6") }
func BenchmarkFig7CompactionCost(b *testing.B)       { runExperiment(b, "fig7") }
func BenchmarkFig8QueryLatency(b *testing.B)         { runExperiment(b, "fig8") }
func BenchmarkTable1Conflicts(b *testing.B)          { runExperiment(b, "table1") }
func BenchmarkFig9AutoTuning(b *testing.B)           { runExperiment(b, "fig9") }
func BenchmarkFig10aManualVsAuto(b *testing.B)       { runExperiment(b, "fig10a") }
func BenchmarkFig10bDynamicK(b *testing.B)           { runExperiment(b, "fig10b") }
func BenchmarkFig10cDeployment(b *testing.B)         { runExperiment(b, "fig10c") }
func BenchmarkFig11aWorkloadMetrics(b *testing.B)    { runExperiment(b, "fig11a") }
func BenchmarkFig11bHDFSOpens(b *testing.B)          { runExperiment(b, "fig11b") }
func BenchmarkEstimatorAccuracy(b *testing.B)        { runExperiment(b, "est") }

// --- ablations over AutoComp's design choices ---

// BenchmarkAblationMOOPWeights sweeps the benefit/cost weights of the
// scalarized MOOP (§4.3; the paper deploys 0.7/0.3) and reports files
// reduced per TBHr of compaction spend.
func BenchmarkAblationMOOPWeights(b *testing.B) {
	for _, w1 := range []float64{0.3, 0.5, 0.7, 0.9} {
		w1 := w1
		b.Run(fmt.Sprintf("w1=%.1f", w1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunCAB(bench.CABRunConfig{
					Workload: workload.CABConfig{
						RawDataBytes: 20 * storage.GB, Databases: 8,
						Duration: 2 * time.Hour, Months: 12, Seed: benchSeed,
					},
					Strategy: bench.Strategy{
						Kind: bench.MOOPTable, TopK: 10,
						BenefitWeight: w1, CostWeight: 1 - w1,
					},
					Seed: benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				tbhr := metrics.Mean(res.CompactionGBHrs) * float64(len(res.CompactionGBHrs)) / 1024
				if tbhr > 0 {
					b.ReportMetric(float64(res.FilesReducedTotal)/tbhr, "files/TBHr")
				}
				b.ReportMetric(float64(res.FilesReducedTotal), "files-reduced")
			}
		})
	}
}

// BenchmarkAblationScope compares candidate scopes (§4.1/§6) on the same
// workload.
func BenchmarkAblationScope(b *testing.B) {
	for _, s := range []bench.Strategy{
		{Kind: bench.MOOPTable, TopK: 10},
		{Kind: bench.MOOPHybrid, TopK: 50},
		{Kind: bench.MOOPHybrid, TopK: 500},
	} {
		s := s
		b.Run(s.Label(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunCAB(bench.CABRunConfig{
					Workload: workload.CABConfig{
						RawDataBytes: 20 * storage.GB, Databases: 8,
						Duration: 2 * time.Hour, Months: 12, Seed: benchSeed,
					},
					Strategy: s,
					Seed:     benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.FilesReducedTotal), "files-reduced")
				b.ReportMetric(res.FileCounts.Last(), "final-files")
			}
		})
	}
}

// fleetDataService builds the §7 data-compaction pipeline over f under
// the given selector.
func fleetDataService(b *testing.B, f *fleet.Fleet, selector policy.Component) *core.Service {
	b.Helper()
	ss, err := f.ServiceFromSpec(testkit.DataSpec(selector), testkit.Model(), fleet.SpecRunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return ss.Svc
}

// BenchmarkAblationSelection compares fixed top-k against budgeted
// dynamic-k selection (§4.3, §7) on the fleet.
func BenchmarkAblationSelection(b *testing.B) {
	run := func(b *testing.B, sel policy.Component) {
		for i := 0; i < b.N; i++ {
			clock := sim.NewClock()
			cfg := fleet.DefaultConfig()
			cfg.InitialTables = 500
			f := fleet.New(cfg, clock)
			svc := fleetDataService(b, f, sel)
			var files int64
			for d := 0; d < 7; d++ {
				f.AdvanceDay()
				rep, err := svc.RunOnce()
				if err != nil {
					b.Fatal(err)
				}
				files += int64(rep.FilesReduced)
			}
			b.ReportMetric(float64(files), "files-reduced")
		}
	}
	topK := func(k int) policy.Component {
		return policy.Component{Name: "top-k", Params: map[string]any{"k": float64(k)}}
	}
	b.Run("topk=10", func(b *testing.B) { run(b, topK(10)) })
	b.Run("topk=100", func(b *testing.B) { run(b, topK(100)) })
	b.Run("budget=226TBHr", func(b *testing.B) {
		run(b, policy.Component{Name: "budget", Params: map[string]any{"budget_gbhr": float64(226 * 1024)}})
	})
}

// BenchmarkAblationConflictValidation measures the strict (Iceberg
// v1.2.0, §4.4) versus relaxed rewrite validation under concurrent
// partition compactions of one table.
func BenchmarkAblationConflictValidation(b *testing.B) {
	run := func(b *testing.B, strict bool) {
		conflicts := 0
		for i := 0; i < b.N; i++ {
			clock := sim.NewClock()
			fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(benchSeed))
			tbl, err := lst.NewTable(lst.TableConfig{
				Database: "db", Name: "t",
				Spec:                   lst.PartitionSpec{Column: "d", Transform: lst.TransformMonth},
				StrictRewriteConflicts: strict,
			}, fs, clock)
			if err != nil {
				b.Fatal(err)
			}
			var specs []lst.FileSpec
			for p := 0; p < 8; p++ {
				for j := 0; j < 6; j++ {
					specs = append(specs, lst.FileSpec{
						Partition: fmt.Sprintf("2024-%02d", p+1),
						SizeBytes: 16 << 20, RowCount: 100,
					})
				}
			}
			if _, err := tbl.AppendFiles(specs); err != nil {
				b.Fatal(err)
			}
			// Two overlapping rewrite transactions on disjoint
			// partitions (the unscheduled-parallel-compaction case).
			mk := func(part string) *lst.Transaction {
				tx := tbl.NewTransaction(lst.OpRewrite)
				for _, f := range tbl.FilesInPartition(part) {
					tx.Remove(f.Path, f.Partition)
				}
				tx.Add(lst.FileSpec{Partition: part, SizeBytes: 96 << 20, RowCount: 600})
				return tx
			}
			txA, txB := mk("2024-01"), mk("2024-02")
			if _, err := txA.Commit(); err != nil {
				b.Fatal(err)
			}
			if _, err := txB.Commit(); err != nil {
				conflicts++
			}
		}
		b.ReportMetric(float64(conflicts)/float64(b.N), "conflict-rate")
	}
	b.Run("strict-v1.2", func(b *testing.B) { run(b, true) })
	b.Run("relaxed", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationTriggerTraits compares the small-file-count and
// entropy optimize-after-write triggers (§6.3's finding: comparable).
func BenchmarkAblationTriggerTraits(b *testing.B) {
	for _, trait := range []bench.HookTrait{bench.HookSmallFileCount, bench.HookEntropy} {
		trait := trait
		threshold := 300.0
		if trait == bench.HookEntropy {
			threshold = 15
		}
		b.Run(trait.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.RunPhased(bench.PhasedRunConfig{
					Workload: workload.TPCDSWP1(10 * storage.GB),
					Seed:     benchSeed,
					Hook:     bench.HookSpec{Enabled: true, Trait: trait, Threshold: threshold},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Total.Seconds(), "e2e-seconds")
				b.ReportMetric(float64(res.HookTriggers), "triggers")
			}
		})
	}
}

// BenchmarkAblationClustering compares plain bin-pack compaction against
// clustering (Z-order style) rewrites (§8 "Automatic Data Layout
// Optimization"): clustering costs more GBHr but selective scans get
// data skipping.
func BenchmarkAblationClustering(b *testing.B) {
	run := func(b *testing.B, clusterData bool) {
		for i := 0; i < b.N; i++ {
			clock := sim.NewClock()
			rng := sim.NewRNG(benchSeed)
			fs := storage.NewNameNode(storage.DefaultConfig(), clock, rng.Fork())
			qc := cluster.New(cluster.QueryClusterConfig(), clock)
			cc := cluster.New(cluster.CompactionClusterConfig(), clock)
			eng := engineNew(qc, fs, clock, rng)
			tbl, err := lst.NewTable(lst.TableConfig{Database: "db", Name: "t"}, fs, clock)
			if err != nil {
				b.Fatal(err)
			}
			specs := make([]lst.FileSpec, 200)
			for j := range specs {
				specs[j] = lst.FileSpec{SizeBytes: 24 << 20, RowCount: 100}
			}
			if _, err := tbl.AppendFiles(specs); err != nil {
				b.Fatal(err)
			}
			ex := &compaction.Executor{
				Cluster:        cc,
				TargetFileSize: 512 << 20,
				ClusterData:    clusterData,
			}
			res := ex.CompactTable(tbl)
			if !res.Succeeded() {
				b.Fatalf("compaction failed: %+v", res)
			}
			q := eng.Exec(engineQuery(tbl))
			b.ReportMetric(res.GBHr, "compaction-GBHr")
			b.ReportMetric(q.ExecTime.Seconds(), "selective-scan-s")
		}
	}
	b.Run("binpack-only", func(b *testing.B) { run(b, false) })
	b.Run("binpack+clustering", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationOptimizeWrite contrasts the write-side mitigation
// (coalescing outputs at write time, §8) with untuned writers: it stops
// new small files but leaves the existing backlog to compaction.
func BenchmarkAblationOptimizeWrite(b *testing.B) {
	run := func(b *testing.B, target int64) {
		for i := 0; i < b.N; i++ {
			clock := sim.NewClock()
			rng := sim.NewRNG(benchSeed)
			fs := storage.NewNameNode(storage.DefaultConfig(), clock, rng.Fork())
			qc := cluster.New(cluster.QueryClusterConfig(), clock)
			cfg := engine.DefaultConfig()
			cfg.OptimizeWriteTarget = target
			eng := engine.New(cfg, qc, fs, clock, rng.Fork())
			tbl, err := lst.NewTable(lst.TableConfig{Database: "db", Name: "t"}, fs, clock)
			if err != nil {
				b.Fatal(err)
			}
			for w := 0; w < 24; w++ {
				eng.Exec(engine.Query{App: "ingest", Table: tbl, Kind: engine.Insert, Bytes: 256 << 20})
			}
			b.ReportMetric(float64(tbl.FileCount()), "files")
			b.ReportMetric(float64(tbl.SmallFileCount(512<<20)), "small-files")
		}
	}
	b.Run("untuned", func(b *testing.B) { run(b, 0) })
	b.Run("optimize-write", func(b *testing.B) { run(b, 512<<20) })
}

// engineNew and engineQuery keep the ablation body readable.
func engineNew(qc *cluster.Cluster, fs *storage.NameNode, clock *sim.Clock, rng *sim.RNG) *engine.Engine {
	return engine.New(engine.DefaultConfig(), qc, fs, clock, rng.Fork())
}

func engineQuery(tbl *lst.Table) engine.Query {
	return engine.Query{
		App: "selective", Table: tbl, Kind: engine.Read,
		ScanFraction: 0.3, SelectiveFilter: true,
	}
}

// --- micro-benchmarks of the core primitives ---

func BenchmarkBinPack(b *testing.B) {
	rng := sim.NewRNG(benchSeed)
	files := make([]lst.DataFile, 2000)
	for i := range files {
		files[i] = lst.DataFile{
			Path:      fmt.Sprintf("/db/t/data/p/%06d.parquet", i),
			SizeBytes: int64(rng.LogNormalAround(24*float64(storage.MB), 0.8)),
			RowCount:  100,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := compaction.PlanBinPack(files, 512*storage.MB)
		if plan.InputFiles == 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkMOOPRanking ranks whole candidate pools with static MOOP
// weights at fleet scale: 2k, 20k and 100k data-compaction candidates
// with spread scores, and a tie-heavy 20k pool whose scores take three
// values and whose candidates carry maintenance actions, so most
// comparisons fall through to the candidate IDs. The pools are oriented
// by core.Orient from their stats, as the decide phase orients them.
func BenchmarkMOOPRanking(b *testing.B) {
	cost := core.ComputeCost{ExecutorMemoryGB: 64, RewriteBytesPerHour: float64(3 * storage.TB)}
	ranker := core.MOOPRanker{Objectives: []core.Objective{
		{Trait: core.FileCountReduction{}, Weight: 0.7},
		{Trait: cost, Weight: 0.3},
	}}
	set, err := core.NewTraitSet([]core.Trait{core.FileCountReduction{}, cost})
	if err != nil {
		b.Fatal(err)
	}
	actions := []core.ActionType{
		core.ActionSnapshotExpiry, core.ActionMetadataCheckpoint, core.ActionManifestRewrite,
	}
	mk := func(n int, ties bool) []*core.Candidate {
		rng := sim.NewRNG(benchSeed)
		cands := make([]*core.Candidate, n)
		for i := range cands {
			c := &core.Candidate{
				Table: benchTable{name: fmt.Sprintf("db.t%06d", i)},
				Stats: core.Stats{SmallFiles: rng.Intn(10000), SmallBytes: rng.Int63n(5 * storage.TB)},
			}
			if ties {
				// Maintenance actions cost their metadata bytes; a
				// constant cost normalizes to 0, so the score is 0.7 ×
				// one of three normalized reductions.
				c.Stats.SmallFiles = rng.Intn(3)
				c.Stats.MetadataBytes = storage.GB
				c.Action = actions[rng.Intn(len(actions))]
			}
			cands[i] = c
		}
		core.Orient(cands, set)
		return cands
	}
	for _, row := range []struct {
		name string
		n    int
		ties bool
	}{
		{"n=2k", 2_000, false},
		{"n=20k", 20_000, false},
		{"n=100k", 100_000, false},
		{"ties/n=20k", 20_000, true},
	} {
		b.Run(row.name, func(b *testing.B) {
			cands := mk(row.n, row.ties)
			b.ReportAllocs()
			for b.Loop() {
				ranker.Rank(cands)
			}
		})
	}
}

// BenchmarkOrient orients a 100k-candidate pool with the unified
// maintenance trait list (ΔF, ΔM, GBHr). Orient cuts every vector from
// one slab, so allocs/op must read 1 at any pool size.
func BenchmarkOrient(b *testing.B) {
	set, err := core.NewTraitSet([]core.Trait{
		core.FileCountReduction{}, core.MetadataReduction{},
		core.ComputeCost{ExecutorMemoryGB: 64, RewriteBytesPerHour: float64(3 * storage.TB)},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(benchSeed)
	cands := make([]*core.Candidate, 100_000)
	for i := range cands {
		cands[i] = &core.Candidate{
			Table: benchTable{name: fmt.Sprintf("db.t%06d", i)},
			Stats: core.Stats{
				SmallFiles:        rng.Intn(10000),
				SmallBytes:        rng.Int63n(5 * storage.TB),
				MetadataReducible: rng.Intn(100),
			},
		}
	}
	b.Run("n=100k", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			core.Orient(cands, set)
		}
	})
}

// benchTable is a minimal core.Table for ranking benchmarks.
type benchTable struct{ name string }

func (t benchTable) Database() string                       { return "db" }
func (t benchTable) Name() string                           { return t.name }
func (t benchTable) FullName() string                       { return t.name }
func (t benchTable) Spec() lst.PartitionSpec                { return lst.PartitionSpec{} }
func (t benchTable) Mode() lst.WriteMode                    { return lst.CopyOnWrite }
func (t benchTable) Prop(string) string                     { return "" }
func (t benchTable) Created() time.Duration                 { return 0 }
func (t benchTable) LastWrite() time.Duration               { return 0 }
func (t benchTable) FileCount() int                         { return 0 }
func (t benchTable) TotalBytes() int64                      { return 0 }
func (t benchTable) Partitions() []string                   { return nil }
func (t benchTable) LiveFiles() []lst.DataFile              { return nil }
func (t benchTable) FilesInPartition(string) []lst.DataFile { return nil }

func BenchmarkCommitProtocol(b *testing.B) {
	clock := sim.NewClock()
	fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(benchSeed))
	tbl, err := lst.NewTable(lst.TableConfig{Database: "db", Name: "t"}, fs, clock)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.AppendFiles([]lst.FileSpec{{SizeBytes: storage.MB, RowCount: 10}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetDay(b *testing.B) {
	clock := sim.NewClock()
	cfg := fleet.DefaultConfig()
	cfg.InitialTables = 2000
	f := fleet.New(cfg, clock)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AdvanceDay()
	}
}

func BenchmarkServiceDecide(b *testing.B) {
	clock := sim.NewClock()
	cfg := fleet.DefaultConfig()
	cfg.InitialTables = 2000
	f := fleet.New(cfg, clock)
	svc := fleetDataService(b, f, policy.Component{Name: "top-k", Params: map[string]any{"k": float64(10)}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Decide(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeRunOnce measures one full OODA cycle over an LST-backed
// catalog through the public API.
func BenchmarkFacadeRunOnce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clock := sim.NewClock()
		fs := storage.NewNameNode(storage.DefaultConfig(), clock, sim.NewRNG(benchSeed))
		cp := catalog.New(fs, clock)
		cc := cluster.New(cluster.CompactionClusterConfig(), clock)
		cp.CreateDatabase("db", "t", 0)
		for t := 0; t < 10; t++ {
			tbl, err := cp.CreateTable("db", lst.TableConfig{Name: fmt.Sprintf("t%02d", t)})
			if err != nil {
				b.Fatal(err)
			}
			specs := make([]lst.FileSpec, 50)
			for j := range specs {
				specs[j] = lst.FileSpec{SizeBytes: 8 << 20, RowCount: 10}
			}
			if _, err := tbl.AppendFiles(specs); err != nil {
				b.Fatal(err)
			}
		}
		clock.Advance(48 * time.Hour)
		svc, err := New(Options{Catalog: cp, Cluster: cc, TopK: 10})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := svc.RunOnce(); err != nil {
			b.Fatal(err)
		}
	}
}
