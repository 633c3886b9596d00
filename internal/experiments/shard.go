package experiments

import (
	"fmt"
	"runtime"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/decideshard"
	"autocomp/internal/fleet"
	"autocomp/internal/metrics"
	"autocomp/internal/policy"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
	"autocomp/internal/storage"
)

// --- Sharded decide plane: decide wall time vs shard count ---

// ShardSample is one shard-count point of the decide-plane sweep.
type ShardSample struct {
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// DecideMS is the measured decide wall time (best of the reps) and
	// MeasuredSpeedup the serial baseline divided by it. On a host with
	// fewer cores than workers the measured number shows sharding
	// overhead, not the parallel win.
	DecideMS        float64 `json:"decide_ms"`
	MeasuredSpeedup float64 `json:"measured_speedup"`
	// CriticalPathMS is the slowest shard's pipeline plus the serial
	// merge (the pool's one rank) — what decide wall time becomes on
	// >= Shards cores — and ProjectedSpeedup the serial baseline divided
	// by that.
	CriticalPathMS   float64 `json:"critical_path_ms"`
	ProjectedSpeedup float64 `json:"projected_speedup"`
	// ParityOK reports whether the sharded decision fingerprint was
	// byte-identical to the serial baseline's.
	ParityOK bool `json:"parity_ok"`
}

// ShardResult characterizes the sharded decide plane: the decision
// bytes never change with the shard count while the decide critical
// path shrinks toward the slowest shard plus the merge.
type ShardResult struct {
	Tables     int
	Gomaxprocs int
	// SerialMS is the serial (unsharded) decide baseline.
	SerialMS float64
	Samples  []ShardSample
}

// ID implements Result.
func (ShardResult) ID() string { return "shard" }

// Title implements Result.
func (ShardResult) Title() string {
	return "Sharded decide plane: decide time vs shard count, byte parity"
}

// Render implements Result.
func (r ShardResult) Render() string {
	rows := make([][]string, 0, len(r.Samples))
	for _, s := range r.Samples {
		parity := "YES"
		if !s.ParityOK {
			parity = "NO"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Shards),
			fmt.Sprintf("%d", s.Workers),
			fmt.Sprintf("%.1f", s.DecideMS),
			fmt.Sprintf("%.2fx", s.MeasuredSpeedup),
			fmt.Sprintf("%.1f", s.CriticalPathMS),
			fmt.Sprintf("%.2fx", s.ProjectedSpeedup),
			parity,
		})
	}
	head := fmt.Sprintf(
		"%d tables, serial decide %.1f ms, GOMAXPROCS=%d\n"+
			"measured wall needs cores to show the win (workers are capped at GOMAXPROCS);\n"+
			"critical path = slowest shard pipeline + merge (one rank of the pool) = decide wall on >= shards cores\n",
		r.Tables, r.SerialMS, r.Gomaxprocs)
	return head + metrics.RenderTable(
		[]string{"Shards", "Workers", "Decide ms", "Wall speedup", "Crit path ms", "Proj speedup", "Parity"}, rows)
}

// Details implements the benchrunner's optional detail hook, landing
// the sweep's raw numbers in the machine-readable bench trajectory.
func (r ShardResult) Details() any {
	return struct {
		Tables     int           `json:"tables"`
		Gomaxprocs int           `json:"gomaxprocs"`
		SerialMS   float64       `json:"serial_decide_ms"`
		Samples    []ShardSample `json:"samples"`
	}{r.Tables, r.Gomaxprocs, r.SerialMS, r.Samples}
}

// RunShard sweeps the decide plane across shard counts on identically
// seeded fleets under the unified maintenance pipeline. Per point it
// measures decide wall time (best of reps), reads the engine's
// per-shard timing for the critical-path projection, and asserts
// byte-identical decision fingerprints against the serial baseline.
func RunShard(seed int64, quick bool) (Result, error) {
	// The shard sweep stays at paper scale even under -quick: the decide
	// phase must be large enough (100k tables) for the per-shard timing
	// split to dominate jitter, and the committed bench trajectory
	// records the 100k point. Quick only trims the timing reps.
	tables := 100_000
	reps := 3
	if quick {
		reps = 2
	}
	shardCounts := []int{1, 2, 4, 16}
	model := fleet.DefaultModel(512 * storage.MB)
	spec := policy.DefaultSpec()
	spec.Selector = topK(50)
	spec.Execution = nil

	// mkSvc builds one aged fleet and its maintenance decide pipeline;
	// identical seeds make every variant's lake byte-identical. The
	// decider is attached after compiling: the experiment keeps each
	// engine to read its cycle stats, and a spec with decide_shards 1
	// would compile to the serial pass, not the engine's one-shard path.
	mkSvc := func(dec core.Decider) (*core.Service, error) {
		cfg := fleetConfig(seed, quick)
		cfg.InitialTables = tables
		f := fleet.New(cfg, sim.NewClock())
		f.AdvanceDay()
		comp, err := policy.Compile(spec, f.PolicyEnv(model), f.PolicyBindings(model))
		if err != nil {
			return nil, err
		}
		c := comp.Core
		c.Decider = dec
		return core.NewService(c)
	}
	// Decide is a pure observe→orient→decide pass (no act), so timing
	// reps against one fleet re-decides the same state. Both the wall
	// time and the critical path take the best rep, damping scheduler
	// noise the same way for the measured and projected columns.
	timeDecide := func(svc *core.Service, eng *decideshard.Engine) (*core.Decision, time.Duration, time.Duration, error) {
		var best, bestCrit time.Duration
		var d *core.Decision
		if _, err := svc.Decide(); err != nil { // untimed warmup
			return nil, 0, 0, err
		}
		for i := 0; i < reps; i++ {
			start := time.Now()
			di, err := svc.Decide()
			if err != nil {
				return nil, 0, 0, err
			}
			el := time.Since(start)
			crit := el
			if eng != nil {
				crit = eng.LastCycle().CriticalPath()
			}
			if i == 0 || el < best {
				best = el
			}
			if i == 0 || crit < bestCrit {
				bestCrit = crit
			}
			d = di
		}
		return d, best, bestCrit, nil
	}

	serialSvc, err := mkSvc(nil)
	if err != nil {
		return nil, err
	}
	dSerial, serialBest, _, err := timeDecide(serialSvc, nil)
	if err != nil {
		return nil, err
	}
	fpSerial := testkit.DecisionFingerprint(dSerial)

	res := ShardResult{
		Tables:     tables,
		Gomaxprocs: runtime.GOMAXPROCS(0),
		SerialMS:   float64(serialBest) / float64(time.Millisecond),
	}
	for _, shards := range shardCounts {
		eng := decideshard.New(decideshard.Options{Shards: shards})
		svc, err := mkSvc(eng.Decide)
		if err != nil {
			return nil, err
		}
		d, best, critical, err := timeDecide(svc, eng)
		if err != nil {
			return nil, err
		}
		s := ShardSample{
			Shards:   shards,
			Workers:  eng.Workers(),
			DecideMS: float64(best) / float64(time.Millisecond),
			ParityOK: testkit.DecisionFingerprint(d) == fpSerial,
		}
		if s.DecideMS > 0 {
			s.MeasuredSpeedup = res.SerialMS / s.DecideMS
		}
		s.CriticalPathMS = float64(critical) / float64(time.Millisecond)
		if s.CriticalPathMS > 0 {
			s.ProjectedSpeedup = res.SerialMS / s.CriticalPathMS
		}
		res.Samples = append(res.Samples, s)
	}
	return res, nil
}

func init() {
	register(Spec{ExpID: "shard", Title: ShardResult{}.Title(), Run: RunShard})
}
