package scheduler

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/sim"
)

// scanNext is the reference dispatch rule, evaluated without side
// effects: walk every queued job in priority order (aged priority
// descending, then submission order) and return the first one whose
// backoff has passed, whose table lease is free and whose shard admits
// it. Jobs on exhausted shards that the walk passes are the ones the
// dispatch defers; earliestReady is the soonest backoff expiry among the
// jobs it passed.
func scanNext(p *Pool, now time.Duration) (pick *Job, deferred []*Job, earliestReady time.Duration) {
	rate := p.cfg.AgingRatePerHour
	key := func(j *Job) float64 { return j.BasePriority - rate*j.Enqueued.Hours() }
	var queue []*Job
	for _, j := range p.jobs {
		if j.Status == StatusQueued {
			queue = append(queue, j)
		}
	}
	sort.Slice(queue, func(a, b int) bool {
		if ka, kb := key(queue[a]), key(queue[b]); ka != kb {
			return ka > kb
		}
		return queue[a].seq < queue[b].seq
	})
	for _, j := range queue {
		switch {
		case p.shardExhausted(j.Shard):
			deferred = append(deferred, j)
		case j.readyAt > now:
			if earliestReady == 0 || j.readyAt < earliestReady {
				earliestReady = j.readyAt
			}
		case p.leases[j.Candidate.Table.FullName()] != nil:
		case !p.shardAdmits(j):
		default:
			return j, deferred, earliestReady
		}
	}
	return nil, deferred, earliestReady
}

// checkedDriver is simDriver with scanNext consulted before every
// p.next: the job next returns, the jobs it defers and, when it returns
// nil, the wake time it reports must be the reference walk's.
type checkedDriver struct {
	t      *testing.T
	seed   int64
	p      *Pool
	q      *sim.EventQueue
	idle   int
	wakeAt time.Duration

	checks, nilChecks int
}

func (s *checkedDriver) kick() {
	now := s.q.Clock().Now()
	var earliest time.Duration
	for s.idle > 0 {
		want, deferred, wantReady := scanNext(s.p, now)
		before := s.p.stats.Deferred
		j, er := s.p.next(now)
		s.checks++
		if j != want {
			s.t.Fatalf("seed %d at %v: next = %s, scan picks %s", s.seed, now, jobName(j), jobName(want))
		}
		if got := s.p.stats.Deferred - before; got != len(deferred) {
			s.t.Fatalf("seed %d at %v: next deferred %d jobs, scan defers %d", s.seed, now, got, len(deferred))
		}
		for _, d := range deferred {
			if d.Status != StatusDeferred || d.Finished != now {
				s.t.Fatalf("seed %d at %v: job %s status %v finished %v, scan defers it now",
					s.seed, now, jobName(d), d.Status, d.Finished)
			}
		}
		if er > 0 && (earliest == 0 || er < earliest) {
			earliest = er
		}
		if j == nil {
			s.nilChecks++
			if er != wantReady {
				s.t.Fatalf("seed %d at %v: earliestReady = %v, scan reports %v", s.seed, now, er, wantReady)
			}
			break
		}
		s.idle--
		s.p.dispatch(j, now)
		s.q.ScheduleAfter(s.p.serviceTime(j), func() { s.complete(j) })
	}
	if s.idle > 0 && earliest > 0 && (s.wakeAt == 0 || earliest < s.wakeAt || s.wakeAt <= now) {
		s.wakeAt = earliest
		s.q.ScheduleAt(earliest, s.kick)
	}
}

func (s *checkedDriver) complete(j *Job) {
	s.p.commit(j, s.q.Clock().Now())
	s.idle++
	s.kick()
}

func jobName(j *Job) string {
	if j == nil {
		return "<nil>"
	}
	return fmt.Sprintf("#%d(%s)", j.seq, j.Candidate.Table.FullName())
}

// TestDispatchMatchesScanProperty pins the heap queue to the priority
// walk it replaces: over random pools — worker and shard counts, shard
// budgets, aging, retry limits, same-table siblings, mid-run submission
// waves and live writers forcing commit retries — every dispatch picks
// the same job, defers the same jobs at the same instant, and reports
// the same wake time. Half the seeds crowd few tables with frequent
// writers, so retries in backoff meet budgets running out.
func TestDispatchMatchesScanProperty(t *testing.T) {
	seeds := int64(1000)
	if testing.Short() {
		seeds = 200
	}
	var checks, nilChecks, deferred, retries, leaseWaits int
	for seed := int64(1); seed <= seeds; seed++ {
		rng := sim.NewRNG(seed)
		crowded := seed%2 == 0
		ntables, writeEvery := 1+rng.Intn(40), time.Duration(10+rng.Intn(110))*time.Minute
		if crowded {
			ntables, writeEvery = 2+rng.Intn(11), time.Duration(1+rng.Intn(8))*time.Minute
		}
		tables := make([]*memTable, ntables)
		for i := range tables {
			tables[i] = &memTable{name: fmt.Sprintf("t%02d", i)}
		}
		wave := func(n int) []*core.Candidate {
			cands := make([]*core.Candidate, n)
			for i := range cands {
				est := 0.0
				if !rng.Bernoulli(0.1) {
					est = 64 * (0.05 + 1.5*rng.Float64())
				}
				cands[i] = &core.Candidate{
					Table:  tables[rng.Intn(ntables)],
					Traits: []float64{core.SlotComputeCost: est},
				}
			}
			return cands
		}
		cfg := Config{
			Workers:     1 + rng.Intn(16),
			Shards:      1 + rng.Intn(8),
			MaxAttempts: 1 + rng.Intn(6),
			Seed:        seed,
		}
		first := wave(1 + rng.Intn(60))
		if rng.Bernoulli(0.6) {
			// Enough for part of one wave per shard: budgets run out
			// mid-run.
			cfg.ShardBudgetGBHr = 64 * float64(len(first)) / float64(cfg.Shards) * (0.1 + 0.8*rng.Float64())
		}
		if rng.Bernoulli(0.5) {
			cfg.AgingRatePerHour = -1
		} else {
			cfg.AgingRatePerHour = 0.5 + 4*rng.Float64()
		}
		runner := core.RunnerFunc(func(c *core.Candidate) compaction.Result {
			return compaction.Result{
				Table:        c.Table.FullName(),
				FilesRemoved: 4,
				FilesAdded:   1,
				GBHr:         c.Trait(core.SlotComputeCost) * (0.5 + rng.Float64()),
			}
		})
		clock := sim.NewClock()
		q := sim.NewEventQueue(clock)
		p := New(cfg, runner, clock)
		s := &checkedDriver{t: t, seed: seed, p: p, q: q, idle: p.cfg.Workers}
		p.notify = s.kick
		p.Submit(first)
		for w := rng.Intn(4); w > 0; w-- {
			at := time.Duration(rng.Int63n(int64(12 * time.Hour)))
			more := wave(1 + rng.Intn(30))
			q.ScheduleAt(at, func() { p.Submit(more) })
		}
		var write func()
		write = func() {
			tables[rng.Intn(ntables)].version.Add(1)
			if !p.Idle() {
				q.ScheduleAfter(writeEvery, write)
			}
		}
		q.ScheduleAfter(writeEvery, write)
		waits := mLeaseWaits.Value()
		s.kick()
		q.RunAll()
		if !p.Idle() {
			t.Fatalf("seed %d: drained with %d queued, %d running", seed, p.queued, p.running)
		}
		checks += s.checks
		nilChecks += s.nilChecks
		deferred += p.stats.Deferred
		retries += p.stats.Retries
		leaseWaits += int(mLeaseWaits.Value() - waits)
	}
	t.Logf("%d seeds: %d dispatch checks (%d empty), %d deferrals, %d retries, %d lease parks",
		seeds, checks, nilChecks, deferred, retries, leaseWaits)
	if deferred == 0 || retries == 0 || leaseWaits == 0 {
		t.Fatal("random pools never deferred, retried or parked a job; the property lost its teeth")
	}
}
