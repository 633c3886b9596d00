package cluster

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"autocomp/internal/sim"
)

func testCluster(cfg Config) (*Cluster, *sim.Clock) {
	clock := sim.NewClock()
	return New(cfg, clock), clock
}

func TestEstimateDurationScalesWithBytes(t *testing.T) {
	c, _ := testCluster(QueryClusterConfig())
	small := c.EstimateDuration(JobSpec{ScanBytes: 1 << 30, Tasks: 8})
	big := c.EstimateDuration(JobSpec{ScanBytes: 64 << 30, Tasks: 8})
	if big <= small {
		t.Fatalf("duration did not scale: %v vs %v", small, big)
	}
}

func TestEstimateDurationPerFileOverhead(t *testing.T) {
	c, _ := testCluster(QueryClusterConfig())
	few := c.EstimateDuration(JobSpec{ScanBytes: 1 << 30, Files: 10, Tasks: 10})
	many := c.EstimateDuration(JobSpec{ScanBytes: 1 << 30, Files: 10000, Tasks: 10})
	if many <= few {
		t.Fatalf("per-file overhead missing: %v vs %v", few, many)
	}
}

func TestEstimateDurationWaves(t *testing.T) {
	cfg := QueryClusterConfig()
	cfg.JobStartup = 0
	cfg.PerFileOverhead = 0
	c, _ := testCluster(cfg)
	slots := c.TaskSlots()
	oneWave := c.EstimateDuration(JobSpec{ScanBytes: int64(slots) << 25, Tasks: slots})
	twoWaves := c.EstimateDuration(JobSpec{ScanBytes: int64(slots) << 25, Tasks: slots + 1})
	if twoWaves <= oneWave {
		t.Fatalf("extra wave not slower: %v vs %v", oneWave, twoWaves)
	}
}

func TestEstimateDurationDefaultsTasksToFiles(t *testing.T) {
	c, _ := testCluster(QueryClusterConfig())
	explicit := c.EstimateDuration(JobSpec{ScanBytes: 1 << 30, Files: 7, Tasks: 7})
	implied := c.EstimateDuration(JobSpec{ScanBytes: 1 << 30, Files: 7})
	if explicit != implied {
		t.Fatalf("tasks default mismatch: %v vs %v", explicit, implied)
	}
}

func TestEstimateDurationMinimum(t *testing.T) {
	cfg := QueryClusterConfig()
	cfg.JobStartup = 0
	c, _ := testCluster(cfg)
	if d := c.EstimateDuration(JobSpec{}); d < time.Millisecond {
		t.Fatalf("duration = %v below floor", d)
	}
}

func TestGBHrAccounting(t *testing.T) {
	cfg := Config{Executors: 4, ExecutorCores: 1, ExecutorMemoryGB: 64,
		ScanBytesPerSec: 1 << 20, WriteBytesPerSec: 1 << 20}
	c, _ := testCluster(cfg)
	// 1 hour of work: want GBHr = 64 * 4 * 1 = 256.
	if got := c.GBHrFor(time.Hour); got != 256 {
		t.Fatalf("GBHrFor(1h) = %v", got)
	}
	rec := c.Submit(JobSpec{App: "a", ScanBytes: 1 << 30, Tasks: 1})
	if math.Abs(c.GBHr("a")-rec.GBHr) > 1e-12 {
		t.Fatalf("ledger GBHr = %v, record = %v", c.GBHr("a"), rec.GBHr)
	}
	if c.TotalGBHr() != c.GBHr("a") {
		t.Fatal("total != per-app sum")
	}
}

func TestSubmitQueueing(t *testing.T) {
	cfg := QueryClusterConfig()
	cfg.MaxConcurrentJobs = 1
	c, _ := testCluster(cfg)
	r1 := c.Submit(JobSpec{App: "q1", ScanBytes: 10 << 30, Tasks: 1})
	r2 := c.Submit(JobSpec{App: "q2", ScanBytes: 10 << 30, Tasks: 1})
	if r1.QueueDelay != 0 {
		t.Fatalf("first job queued: %v", r1.QueueDelay)
	}
	if r2.QueueDelay != r1.Duration {
		t.Fatalf("second job queue = %v, want %v", r2.QueueDelay, r1.Duration)
	}
	if r2.End() != r1.End()+r2.Duration {
		t.Fatal("job end times inconsistent")
	}
}

func TestSubmitParallelSlots(t *testing.T) {
	cfg := QueryClusterConfig()
	cfg.MaxConcurrentJobs = 2
	c, _ := testCluster(cfg)
	c.Submit(JobSpec{App: "q1", ScanBytes: 10 << 30, Tasks: 1})
	r2 := c.Submit(JobSpec{App: "q2", ScanBytes: 10 << 30, Tasks: 1})
	if r2.QueueDelay != 0 {
		t.Fatalf("second job should use free slot, queued %v", r2.QueueDelay)
	}
}

func TestQueueDrainsAsClockAdvances(t *testing.T) {
	cfg := QueryClusterConfig()
	cfg.MaxConcurrentJobs = 1
	clock := sim.NewClock()
	c := New(cfg, clock)
	r1 := c.Submit(JobSpec{App: "q1", ScanBytes: 1 << 30, Tasks: 1})
	clock.Advance(r1.Duration + time.Second)
	r2 := c.Submit(JobSpec{App: "q2", ScanBytes: 1 << 30, Tasks: 1})
	if r2.QueueDelay != 0 {
		t.Fatalf("queue did not drain: %v", r2.QueueDelay)
	}
}

func TestRecordsAndPrefixQueries(t *testing.T) {
	c, clock := testCluster(CompactionClusterConfig())
	c.Submit(JobSpec{App: "compaction/t1", ScanBytes: 1 << 30, Tasks: 1})
	clock.Advance(time.Hour)
	c.Submit(JobSpec{App: "compaction/t2", ScanBytes: 1 << 30, Tasks: 1})
	c.Submit(JobSpec{App: "query/q1", ScanBytes: 1 << 30, Tasks: 1})
	recs := c.Records()
	if got := len(recs); got != 3 {
		t.Fatalf("records = %d", got)
	}
	compactions := 0
	for _, r := range recs {
		if strings.HasPrefix(r.App, "compaction/") {
			compactions++
		}
	}
	if compactions != 2 || recs[1].Start != time.Hour {
		t.Fatalf("compaction jobs = %d, second start = %v", compactions, recs[1].Start)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c, _ := testCluster(Config{Name: "min"})
	if c.TaskSlots() != 1 {
		t.Fatalf("slots = %d", c.TaskSlots())
	}
	if c.Config().MaxConcurrentJobs != 1 {
		t.Fatalf("max jobs = %d", c.Config().MaxConcurrentJobs)
	}
}

// Property: GBHr is nonnegative and monotone in duration.
func TestGBHrMonotoneProperty(t *testing.T) {
	c, _ := testCluster(QueryClusterConfig())
	f := func(a, b uint32) bool {
		da, db := time.Duration(a)*time.Millisecond, time.Duration(b)*time.Millisecond
		ga, gb := c.GBHrFor(da), c.GBHrFor(db)
		if ga < 0 || gb < 0 {
			return false
		}
		if da <= db {
			return ga <= gb
		}
		return gb <= ga
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
