package bench

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"autocomp/internal/core"
	"autocomp/internal/decideshard"
	"autocomp/internal/fleet"
	"autocomp/internal/scenario/testkit"
	"autocomp/internal/sim"
)

// decideService builds an aged seed-1 fleet of the given size wired to
// the unified maintenance decide pipeline, optionally routed through a
// sharded decide engine. Decide is a pure observe→orient→decide pass,
// so one service can be re-decided b.N times against frozen state.
func decideService(tb testing.TB, tables, shards int) (*core.Service, *decideshard.Engine) {
	tb.Helper()
	cfg := fleet.DefaultConfig()
	cfg.Seed = 1
	cfg.InitialTables = tables
	cfg.TablesPerMonth = 0
	f := fleet.New(cfg, sim.NewClock())
	f.AdvanceDay()
	c := testkit.Config(tb, f, testkit.MaintenanceSpec(50))
	var eng *decideshard.Engine
	if shards > 1 {
		eng = decideshard.New(decideshard.Options{Shards: shards})
		c.Decider = eng.Decide
	}
	svc, err := core.NewService(c)
	if err != nil {
		tb.Fatal(err)
	}
	return svc, eng
}

// BenchmarkDecide measures decide wall time across fleet sizes and shard
// counts (shards=1 is the serial pipeline). On a single-core host the
// sharded rows show partitioning overhead, not the parallel win — the
// per-shard critical path is reported alongside ns/op for that.
func BenchmarkDecide(b *testing.B) {
	sizes := []int{10_000, 100_000}
	if testing.Short() {
		sizes = []int{1_000}
	}
	for _, tables := range sizes {
		for _, shards := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("tables-%d/shards-%d", tables, shards), func(b *testing.B) {
				svc, eng := decideService(b, tables, shards)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := svc.Decide(); err != nil {
						b.Fatal(err)
					}
				}
				if eng != nil {
					cs := eng.LastCycle()
					b.ReportMetric(float64(cs.CriticalPath())/float64(time.Millisecond), "critpath-ms")
					b.ReportMetric(float64(cs.Merge)/float64(time.Microsecond), "merge-us")
				}
			})
		}
	}
}

// bestDecide returns the fastest of reps timed decides (one untimed
// warmup first) plus the matching best engine critical path.
func bestDecide(tb testing.TB, svc *core.Service, eng *decideshard.Engine, reps int) (wall, crit time.Duration) {
	tb.Helper()
	if _, err := svc.Decide(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := svc.Decide(); err != nil {
			tb.Fatal(err)
		}
		el := time.Since(start)
		c := el
		if eng != nil {
			c = eng.LastCycle().CriticalPath()
		}
		if i == 0 || el < wall {
			wall = el
		}
		if i == 0 || c < crit {
			crit = c
		}
	}
	return wall, crit
}

// TestDecideShardedThroughputGate is the CI bench gate: with
// AUTOCOMP_BENCH_GATE=1 it fails when sharded-4 decide throughput drops
// below the serial pipeline. On hosts with >= 4 cores the gate holds the
// measured wall time to it; on smaller hosts (where parallel wall wins
// cannot materialize) it holds the per-shard critical path — what the
// wall time becomes once cores match shards. Timing-sensitive, so it is
// opt-in and never part of the plain test run.
func TestDecideShardedThroughputGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; skipped in -short")
	}
	if os.Getenv("AUTOCOMP_BENCH_GATE") != "1" {
		t.Skip("set AUTOCOMP_BENCH_GATE=1 to enforce the decide throughput gate")
	}
	const tables, reps = 20_000, 5
	serialSvc, _ := decideService(t, tables, 1)
	serialWall, _ := bestDecide(t, serialSvc, nil, reps)

	shardSvc, eng := decideService(t, tables, 4)
	wall, crit := bestDecide(t, shardSvc, eng, reps)

	gate, metric := wall, "measured wall"
	if runtime.GOMAXPROCS(0) < 4 {
		gate, metric = crit, "critical path"
	}
	t.Logf("serial=%v sharded-4 wall=%v critpath=%v gate=%s GOMAXPROCS=%d",
		serialWall, wall, crit, metric, runtime.GOMAXPROCS(0))
	if gate > serialWall {
		t.Fatalf("sharded-4 decide regressed below serial: %s %v > serial %v",
			metric, gate, serialWall)
	}
}
