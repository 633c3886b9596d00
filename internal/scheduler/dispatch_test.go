package scheduler

import (
	"fmt"
	"testing"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/sim"
)

// scanNext is the reference dispatch rule, evaluated without side
// effects: walk every queued job in rank order and return the first one
// whose backoff has passed, whose table lease is free and whose shard
// admits it. Jobs on exhausted shards that the walk passes are the ones
// the dispatch defers; earliestReady is the soonest backoff expiry among
// the jobs it passed.
func scanNext(p *Pool, now time.Duration) (pick *Job, deferred []*Job, earliestReady time.Duration) {
	for i := range p.jobs {
		j := &p.jobs[i]
		switch {
		case j.Status != StatusQueued:
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

// checkedDriver is Pool.kick and Pool.complete with scanNext consulted
// before every p.next: the job next returns, the jobs it defers and,
// when it returns nil, the wake time it reports must be the reference
// walk's.
type checkedDriver struct {
	t    *testing.T
	seed int64
	p    *Pool

	checks, nilChecks int
}

func (s *checkedDriver) kick() {
	p := s.p
	now := p.q.Clock().Now()
	var earliest time.Duration
	for p.running < p.cfg.Workers {
		want, deferred, wantReady := scanNext(p, now)
		before := p.stats.Deferred
		j, er := p.next(now)
		s.checks++
		if j != want {
			s.t.Fatalf("seed %d at %v: next = %s, scan picks %s", s.seed, now, jobName(j), jobName(want))
		}
		if got := p.stats.Deferred - before; got != len(deferred) {
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
		p.dispatch(j, now)
		p.q.ScheduleAfter(p.serviceTime(j), func() { s.complete(j) })
	}
	if p.running < p.cfg.Workers && earliest > 0 && (p.wakeAt == 0 || earliest < p.wakeAt || p.wakeAt <= now) {
		p.wakeAt = earliest
		p.q.ScheduleAt(earliest, s.kick)
	}
}

func (s *checkedDriver) complete(j *Job) {
	s.p.commit(j, s.p.q.Clock().Now())
	s.kick()
}

func jobName(j *Job) string {
	if j == nil {
		return "<nil>"
	}
	return fmt.Sprintf("#%d(%s)", j.rank, j.Candidate.Table.FullName())
}

// TestDispatchMatchesScanProperty pins the heap queue to the rank-order
// walk it replaces: over random pools — worker and shard counts, shard
// budgets, retry limits, same-table siblings and live writers forcing
// commit retries — every dispatch picks the same job, defers the same
// jobs at the same instant, and reports the same wake time. Half the
// seeds crowd few tables with frequent writers, so retries in backoff
// meet budgets running out.
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
		batch := make([]*core.Candidate, 1+rng.Intn(150))
		for i := range batch {
			est := 0.0
			if !rng.Bernoulli(0.1) {
				est = 64 * (0.05 + 1.5*rng.Float64())
			}
			batch[i] = &core.Candidate{
				Table:  tables[rng.Intn(ntables)],
				Traits: []float64{core.SlotComputeCost: est},
			}
		}
		cfg := Config{
			Workers:     1 + rng.Intn(16),
			Shards:      1 + rng.Intn(8),
			MaxAttempts: 1 + rng.Intn(6),
			Seed:        seed,
		}
		if rng.Bernoulli(0.6) {
			// Enough for part of the batch per shard: budgets run out
			// mid-run.
			cfg.ShardBudgetGBHr = 64 * float64(len(batch)) / float64(cfg.Shards) * (0.1 + 0.8*rng.Float64())
		}
		runner := core.RunnerFunc(func(c *core.Candidate) compaction.Result {
			return compaction.Result{
				Table:        c.Table.FullName(),
				FilesRemoved: 4,
				FilesAdded:   1,
				GBHr:         c.Trait(core.SlotComputeCost) * (0.5 + rng.Float64()),
			}
		})
		q := sim.NewEventQueue(sim.NewClock())
		p := New(cfg, runner, q, batch)
		for i, c := range batch {
			if p.jobs[i].Candidate != c {
				t.Fatalf("seed %d: job %d wraps another candidate; the walk would not be rank order", seed, i)
			}
		}
		s := &checkedDriver{t: t, seed: seed, p: p}
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
