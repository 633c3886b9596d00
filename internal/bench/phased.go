package bench

import (
	"fmt"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/engine"
	"autocomp/internal/lst"
	"autocomp/internal/policy"
	"autocomp/internal/workload"
)

// HookTrait selects the optimize-after-write trigger trait of the
// auto-tuning experiments (§6.3): small-file count or file entropy.
type HookTrait int

// Hook traits.
const (
	HookSmallFileCount HookTrait = iota
	HookEntropy
)

func (h HookTrait) String() string {
	if h == HookEntropy {
		return "entropy"
	}
	return "small-file-count"
}

// HookSpec configures optimize-after-write compaction for a phased run.
type HookSpec struct {
	Enabled   bool
	Trait     HookTrait
	Threshold float64
}

// PhasedRunConfig configures a phased (LST-Bench-style) run.
type PhasedRunConfig struct {
	Workload workload.PhasedWorkload
	Seed     int64
	// Hook enables optimize-after-write auto-compaction (§6.3's
	// simplified setup with unlimited compaction resources).
	Hook HookSpec
	// CompactAfterPhases lists phase names after which a manual
	// full-lake compaction runs (the paper's Figure 3 intervention).
	CompactAfterPhases map[string]bool
}

// PhaseResult is one executed phase.
type PhaseResult struct {
	Name     string
	Duration time.Duration
	Queries  int
}

// PhasedResult is the outcome of a phased run.
type PhasedResult struct {
	Workload string
	Phases   []PhaseResult
	// Total is the end-to-end duration: with a separate write cluster
	// (WP3) the write lane overlaps the read lane, so Total is the max
	// of the two; otherwise it is their sum.
	Total time.Duration
	// ManualCompactionTime is time spent in between-phase manual
	// compactions (reported separately, as in Figure 3).
	ManualCompactionTime time.Duration
	// HookTriggers counts optimize-after-write firings.
	HookTriggers int
	// CompactionGBHr is total compaction compute.
	CompactionGBHr float64
	// FilesAtEnd is the final live data-file count.
	FilesAtEnd int
	// PhaseDurationsByName sums durations of phases sharing a name
	// (e.g. all "single-user" repetitions).
	PhaseDurationsByName map[string]time.Duration
}

// RunPhased executes a phased workload single-user style: queries run
// back to back; reads run on the query cluster and, when the workload
// declares a separate write cluster (WP3), writes and their triggered
// compactions run on the sidecar without extending the read lane.
func RunPhased(cfg PhasedRunConfig) (*PhasedResult, error) {
	env := NewEnv(EnvConfig{Seed: cfg.Seed, StrictRewriteConflicts: false})
	w := cfg.Workload

	res := &PhasedResult{
		Workload:             w.Name,
		PhaseDurationsByName: map[string]time.Duration{},
	}

	// Create and load tables.
	if _, err := env.CP.CreateDatabase("bench", "lst-bench", 0); err != nil {
		return nil, err
	}
	months := workload.MonthPartitions(w.Months)
	tables := map[string]*lst.Table{}
	for _, td := range w.Tables {
		tbl, err := env.CP.CreateTable("bench", lst.TableConfig{
			Name:   td.Name,
			Schema: td.Schema,
			Spec:   td.Spec,
			Mode:   td.Mode,
		})
		if err != nil {
			return nil, err
		}
		tables[td.Name] = tbl
		q := engine.Query{
			App:         "load/" + td.Name,
			Table:       tbl,
			Kind:        engine.Insert,
			Bytes:       workload.SizeOfShare(w.RawBytes, td.ShareOfData),
			Parallelism: w.LoadParallelism,
		}
		if td.Spec.IsPartitioned() {
			q.TargetPartitions = months
		}
		if r := env.Engine.Exec(q); r.Failed() {
			return nil, fmt.Errorf("bench: load %s: %w", td.Name, r.Err)
		}
	}

	// Optimize-after-write hook (§5, §6.3).
	var hook *core.AfterWriteHook
	if cfg.Hook.Enabled {
		var trait core.Trait = core.FileCountReduction{}
		if cfg.Hook.Trait == HookEntropy {
			trait = core.FileEntropy{TargetFileSize: env.TargetFileSize}
		}
		_, bindings := policy.CatalogSubstrate(env.CP, env.Exec)
		hook = &core.AfterWriteHook{
			Observer:  bindings.Observer,
			Trait:     trait,
			Threshold: cfg.Hook.Threshold,
			Mode:      core.Immediate,
			Runner:    bindings.Runner,
		}
	}

	// Two lanes: reads on the query cluster, writes (and hook
	// compactions) on the write cluster when decoupled.
	var readLane, writeLane time.Duration
	bump := func(lane *time.Duration, d time.Duration) {
		*lane += d
		// The global clock advances by every operation so that LST
		// timestamps stay monotonic; per-lane makespans are tracked
		// separately for the WP3 overlap accounting.
		env.Clock.Advance(d)
	}

	for _, phase := range w.Phases {
		repeat := phase.Repeat
		if repeat < 1 {
			repeat = 1
		}
		var phaseDur time.Duration
		queries := 0
		for rep := 0; rep < repeat; rep++ {
			for _, tpl := range phase.Queries {
				tbl := tables[tpl.Table]
				if tbl == nil {
					continue
				}
				q := engine.Query{
					App:            "phase/" + phase.Name + "/" + tpl.Name,
					Table:          tbl,
					Kind:           tpl.Kind,
					ScanFraction:   tpl.ScanFraction,
					Bytes:          tpl.WriteBytes,
					ModifyFraction: tpl.ModifyFraction,
					Parallelism:    tpl.Parallelism,
				}
				if n := tpl.RecentPartitions; n > 0 && tbl.Spec().IsPartitioned() {
					parts := tbl.Partitions()
					if len(parts) > n {
						parts = parts[len(parts)-n:]
					}
					if q.Kind == engine.Read {
						q.ScanPartitions = parts
					} else {
						q.TargetPartitions = parts
					}
				}
				queries++
				eng := env.Engine
				lane := &readLane
				if q.Kind.IsWrite() && w.SeparateWriteCluster {
					eng = env.WriteEngine
					lane = &writeLane
				}
				r := eng.Exec(q)
				d := r.QueueDelay + r.ExecTime
				bump(lane, d)
				phaseDur += d
				if q.Kind.IsWrite() && hook != nil {
					hr, err := hook.OnWrite(tbl)
					if err == nil && hr.Triggered && hr.Result != nil {
						res.HookTriggers++
						res.CompactionGBHr += hr.Result.GBHr
						bump(lane, hr.Result.Duration)
						phaseDur += hr.Result.Duration
					}
				}
			}
		}
		res.Phases = append(res.Phases, PhaseResult{Name: phase.Name, Duration: phaseDur, Queries: queries})
		res.PhaseDurationsByName[phase.Name] += phaseDur

		// Manual between-phase compaction (Figure 3).
		if cfg.CompactAfterPhases[phase.Name] {
			for _, td := range w.Tables {
				cres := env.Exec.CompactTable(tables[td.Name])
				if cres.Succeeded() {
					res.ManualCompactionTime += cres.Duration
					res.CompactionGBHr += cres.GBHr
					env.Clock.Advance(cres.Duration)
				}
			}
		}
	}

	if w.SeparateWriteCluster {
		res.Total = readLane
		if writeLane > readLane {
			res.Total = writeLane
		}
	} else {
		res.Total = readLane + writeLane
	}
	for _, t := range tables {
		res.FilesAtEnd += t.FileCount()
	}
	return res, nil
}
