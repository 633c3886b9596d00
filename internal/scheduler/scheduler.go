// Package scheduler is AutoComp's concurrent execution plane: it takes
// the ranked, selected candidates a core.Service decided on and runs them
// on a pool of W workers over S budget shards, instead of the serial
// one-after-another loop of the act phase.
//
// The plane models what a production compaction fleet actually contends
// with (§4.4, §7; see also "Online Bigtable Merge Compaction",
// arXiv:1407.3008, for scheduling merges under resource constraints):
//
//   - one batch per pool: New builds a pool from one cycle's ranked
//     selection, and jobs dispatch in rank order, subject to the
//     constraints below;
//   - per-table exclusive leases — two jobs never touch one table
//     concurrently, the discipline that produced zero cluster-side
//     conflicts in Table 1;
//   - optimistic-concurrency commit: a job records the table's snapshot
//     version when it starts and re-reads it at commit time; if live
//     writers advanced the table past the staleness bound, the job
//     conflicts and retries with bounded exponential backoff;
//   - per-shard GBHr budgets with backpressure: tables hash onto S budget
//     shards, and once a shard's spend reaches its budget mid-cycle its
//     remaining jobs are deferred to the next cycle;
//   - discrete-event execution: Run drains the pool on the sim.EventQueue
//     it was built on (simulated service times, reproducible from a
//     seed), interleaved with whatever else schedules events there, such
//     as live writers racing the compactor.
//
// The Pool is a single-threaded state machine. Each queued job sits in
// exactly one of five places: the run (the selection's jobs not yet
// popped, in rank order), the ready heap (rank order), the waiting heap
// (retries in backoff, by expiry), a per-table parked list (popped while
// its table's lease was held) or a per-shard blocked list (popped while
// its shard's budget refused admission). Backoff expiry, lease release,
// commits and budget exhaustion return jobs to the ready heap, and a
// dispatch pops whichever of the run's head and the heap's top ranks
// first, so it costs O(log n) instead of re-walking the jobs that cannot
// run, yet it picks the job, defers the jobs and reports the earliest
// backoff expiry that a rank-order walk of the whole queue would.
package scheduler

import (
	"container/heap"
	"fmt"
	"slices"
	"time"

	"autocomp/internal/compaction"
	"autocomp/internal/core"
	"autocomp/internal/sim"
)

// Config parameterizes a Pool.
type Config struct {
	// Workers is the number of concurrent job slots W (min 1).
	Workers int
	// Shards is the number of budget shards S tables hash onto (min 1).
	Shards int
	// ShardBudgetGBHr is each shard's per-cycle compute budget.
	// Admission reserves each in-flight job's estimated cost, so a
	// burst of dispatches cannot overrun the budget by more than one
	// job per shard; once committed spend reaches the budget, the
	// shard's remaining jobs are deferred to the next cycle
	// (backpressure). Zero or negative means unlimited.
	ShardBudgetGBHr float64

	// StalenessBound is how many versions a table may advance between
	// job start and commit before the commit aborts and retries. The
	// default 0 means any concurrent writer commit forces a retry;
	// negative disables the check entirely.
	StalenessBound int64
	// MaxAttempts bounds retries per job (total attempts; min 1). Zero
	// means DefaultMaxAttempts.
	MaxAttempts int
	// RetryBase and RetryMax bound the exponential backoff between
	// attempts: attempt n waits min(RetryBase·2^(n−1), RetryMax) with
	// ±20% deterministic jitter. Zero values take the defaults.
	RetryBase time.Duration
	RetryMax  time.Duration

	// AgingRatePerHour has no effect: a pool holds one batch, which
	// dispatches in rank order.
	AgingRatePerHour float64

	// ExecutorMemoryGB prices a job's service time: its decide-time
	// compute_cost_gbhr estimate over this memory yields the hours it
	// occupies a worker, floored at MinServiceTime. Zero or negative
	// means DefaultExecutorMemoryGB.
	ExecutorMemoryGB float64

	// Seed drives the deterministic backoff jitter.
	Seed int64
}

// Defaults.
const (
	// DefaultMaxAttempts is the retry budget when Config.MaxAttempts is
	// unset.
	DefaultMaxAttempts = 4
	// DefaultRetryBase is the first backoff window when Config.RetryBase
	// is unset.
	DefaultRetryBase = 30 * time.Second
	// DefaultRetryMax caps the exponential backoff when Config.RetryMax
	// is unset.
	DefaultRetryMax = 8 * time.Minute
	// DefaultExecutorMemoryGB prices service times when
	// Config.ExecutorMemoryGB is unset.
	DefaultExecutorMemoryGB = 64.0
	// MinServiceTime floors modeled service times: even a trivial job
	// pays scheduling and startup latency.
	MinServiceTime = 30 * time.Second
)

func (cfg Config) withDefaults() Config {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.ExecutorMemoryGB <= 0 {
		cfg.ExecutorMemoryGB = DefaultExecutorMemoryGB
	}
	return cfg
}

// Status is a job's lifecycle state.
type Status int

// Job states. Queued and Running are transient; the rest are terminal
// for the cycle.
const (
	// StatusQueued means the job awaits dispatch (or a backoff window).
	StatusQueued Status = iota
	// StatusRunning means the job occupies a worker slot.
	StatusRunning
	// StatusDone means the job committed (or its runner skipped it).
	StatusDone
	// StatusConflicted means the job exhausted its attempts on commit
	// conflicts.
	StatusConflicted
	// StatusDeferred means the job's shard ran out of budget mid-cycle
	// (backpressure): it never ran and should re-enter next cycle.
	StatusDeferred
	// StatusFailed means the runner reported an error.
	StatusFailed
)

// String renders the status name.
func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusConflicted:
		return "conflicted"
	case StatusDeferred:
		return "deferred"
	case StatusFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Job is one scheduled work unit wrapping a selected candidate.
type Job struct {
	Candidate *core.Candidate
	// Shard is the budget shard the job's table hashes onto.
	Shard int
	// Status is the job's current lifecycle state.
	Status Status
	// Attempts counts execution attempts (including the successful one).
	Attempts int
	// Result is the executed outcome (terminal states only).
	Result compaction.Result

	// Started and Finished are pool-clock instants.
	Started  time.Duration
	Finished time.Duration

	// table is the candidate's table name and rank its position in the
	// selection (0 dispatches first).
	table string
	rank  int

	readyAt      time.Duration
	startVersion int64
	queuedSince  time.Duration
	// estCost is the decide-time compute_cost_gbhr estimate, reserved
	// against the shard budget while the job is in flight; it also
	// prices the job's service time.
	estCost float64
	// wastedGBHr accumulates the cost of commit-aborted attempts: the
	// work ran for its full service time and was thrown away, so it
	// still burns budget (the same convention as the two-phase
	// executor, which charges GBHr on conflicted rewrites).
	wastedGBHr float64
}

// jobHeap is a binary heap of queued jobs ordered by before: byRank for
// the ready queue, byReadyAt for the waiting queue.
type jobHeap struct {
	jobs   []*Job
	before func(a, b *Job) bool
}

func (h *jobHeap) Len() int           { return len(h.jobs) }
func (h *jobHeap) Less(i, k int) bool { return h.before(h.jobs[i], h.jobs[k]) }
func (h *jobHeap) Swap(i, k int)      { h.jobs[i], h.jobs[k] = h.jobs[k], h.jobs[i] }
func (h *jobHeap) Push(x any)         { h.jobs = append(h.jobs, x.(*Job)) }
func (h *jobHeap) Pop() any {
	n := len(h.jobs) - 1
	j := h.jobs[n]
	h.jobs[n] = nil
	h.jobs = h.jobs[:n]
	return j
}

// byRank is dispatch order: the selection's rank order.
func byRank(a, b *Job) bool { return a.rank < b.rank }

// byReadyAt orders retries by backoff expiry.
func byReadyAt(a, b *Job) bool { return a.readyAt < b.readyAt }

// Stats summarizes one drained cycle.
type Stats struct {
	Workers   int
	Shards    int
	Submitted int

	Done       int
	Skipped    int // runner reported nothing to do
	Conflicted int // terminal: attempts exhausted
	Deferred   int // shard budget backpressure
	Failed     int

	// Conflicts counts every aborted commit; Retries counts the aborts
	// that were re-queued (Conflicts − terminal conflict aborts).
	Conflicts int
	Retries   int

	// Makespan is first-dispatch to last-completion on the pool clock.
	Makespan time.Duration
	// BusyTime sums service time across workers; utilization is
	// BusyTime / (Workers × Makespan).
	BusyTime time.Duration

	// MaxQueueDepth is the most jobs left queued at a dispatch.
	MaxQueueDepth int

	// MaxWorkersBusy is the peak number of jobs in flight at once
	// (bounded by Workers). Per-table concurrency is always ≤ 1 — the
	// lease manager panics on a violation.
	MaxWorkersBusy int

	// SpentGBHr is committed compute per shard.
	SpentGBHr []float64
}

// Utilization returns BusyTime over total worker-time.
func (s Stats) Utilization() float64 {
	if s.Makespan <= 0 || s.Workers <= 0 {
		return 0
	}
	return s.BusyTime.Hours() / (float64(s.Workers) * s.Makespan.Hours())
}

// TotalSpentGBHr sums shard spend.
func (s Stats) TotalSpentGBHr() float64 {
	var t float64
	for _, v := range s.SpentGBHr {
		t += v
	}
	return t
}

// Pool is the scheduler state machine over one batch of jobs. It is not
// safe for concurrent use: Run drives it from its event queue's single
// thread.
type Pool struct {
	cfg    Config
	q      *sim.EventQueue
	runner core.Runner
	rng    *sim.RNG

	// jobs is the selection in rank order, one slab. Every queued job is
	// in exactly one of jobs[head:] (the run), ready, waiting, parked and
	// blocked; queued counts them.
	jobs    []Job
	head    int
	ready   jobHeap           // rank order
	waiting jobHeap           // retries in backoff, readyAt asc
	parked  map[string][]*Job // by table: popped while its lease was held
	blocked [][]*Job          // by shard: popped while admission refused it
	queued  int

	leases   map[string]*Job
	running  int
	spent    []float64
	reserved []float64 // estimated GBHr of in-flight jobs, per shard
	inFlight []int     // in-flight job count per shard
	// wakeAt dedups backoff wake events.
	wakeAt time.Duration

	started    bool
	firstStart time.Duration
	lastFinish time.Duration
	stats      Stats
}

// New builds a pool over one cycle's ranked selection that executes
// jobs with runner on the event queue q: the first candidate dispatches
// first.
func New(cfg Config, runner core.Runner, q *sim.EventQueue, selected []*core.Candidate) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:      cfg,
		q:        q,
		runner:   runner,
		rng:      sim.NewRNG(cfg.Seed),
		jobs:     make([]Job, len(selected)),
		ready:    jobHeap{before: byRank},
		waiting:  jobHeap{before: byReadyAt},
		parked:   make(map[string][]*Job),
		blocked:  make([][]*Job, cfg.Shards),
		leases:   make(map[string]*Job),
		spent:    make([]float64, cfg.Shards),
		reserved: make([]float64, cfg.Shards),
		inFlight: make([]int, cfg.Shards),
		queued:   len(selected),
		stats:    Stats{Workers: cfg.Workers, Shards: cfg.Shards, Submitted: len(selected)},
	}
	now := q.Clock().Now()
	for i, c := range selected {
		name := c.Table.FullName()
		p.jobs[i] = Job{
			Candidate:   c,
			Shard:       core.ShardOf(name, cfg.Shards),
			table:       name,
			rank:        i,
			queuedSince: now,
		}
		if est := c.Trait(core.SlotComputeCost); est > 0 {
			p.jobs[i].estCost = est
		}
	}
	mQueueDepth.Set(float64(p.queued))
	mSubmitted.Add(float64(len(selected)))
	return p
}

// next pops the first runnable job in rank order, or nil. A job is
// runnable when its backoff window has passed, no lease is held on its
// table, and its shard still has budget. Jobs whose shard is exhausted
// are deferred on the spot (backpressure). earliestReady reports the
// soonest backoff expiry among the queued jobs (0 when none), so kick
// knows when to wake.
//
// Popped jobs that cannot run yet are parked on their table's lease or
// blocked on their shard's admission until a commit frees them, so every
// job next pops either runs, is deferred, or is set aside once.
func (p *Pool) next(now time.Duration) (j *Job, earliestReady time.Duration) {
	for p.waiting.Len() > 0 && p.waiting.jobs[0].readyAt <= now {
		heap.Push(&p.ready, heap.Pop(&p.waiting))
	}
	for j == nil && (p.head < len(p.jobs) || p.ready.Len() > 0) {
		// The run is in rank order and the heap yields its minimum, so
		// the first of the two is the queue's first.
		var cand *Job
		if p.head < len(p.jobs) && (p.ready.Len() == 0 || p.head < p.ready.jobs[0].rank) {
			cand = &p.jobs[p.head]
			p.head++
		} else {
			cand = heap.Pop(&p.ready).(*Job)
		}
		switch {
		case p.shardExhausted(cand.Shard):
			// Backpressure: this shard is out of budget for the cycle.
			p.queued--
			cand.Status = StatusDeferred
			cand.Finished = now
			cand.Result = compaction.Result{
				Table:   cand.table,
				Skipped: true,
				// Conflict-aborted attempts before the deferral already
				// burned budget; keep the report consistent with spend.
				GBHr: cand.wastedGBHr,
			}
			p.stats.Deferred++
			mJobsDeferred.Inc()
			// Deferral is a terminal outcome: it closes the makespan
			// window like any other finish (a retried job can be
			// deferred after the last successful commit).
			p.noteFinish(now)
		case p.leases[cand.table] != nil:
			p.parked[cand.table] = append(p.parked[cand.table], cand)
			mLeaseWaits.Inc()
		case !p.shardAdmits(cand):
			// Reserved in-flight estimates would bust the budget: the job
			// waits for a commit on its shard to release a reservation.
			p.blocked[cand.Shard] = append(p.blocked[cand.Shard], cand)
		default:
			p.queued--
			j = cand
		}
	}
	mQueueDepth.Set(float64(p.queued))
	if p.waiting.Len() > 0 {
		earliestReady = p.waiting.jobs[0].readyAt
	}
	return j, earliestReady
}

func (p *Pool) shardExhausted(shard int) bool {
	return p.cfg.ShardBudgetGBHr > 0 && p.spent[shard] >= p.cfg.ShardBudgetGBHr
}

// shardAdmits applies reservation-aware admission: committed spend plus
// the estimates of in-flight jobs plus this job's estimate must fit the
// budget. A shard with nothing in flight always admits one job while
// budget remains (progress guarantee — gated on the integer in-flight
// count, not the float reservation sum, which can carry rounding
// residue), so overshoot is bounded by one job per shard rather than one
// per worker.
func (p *Pool) shardAdmits(j *Job) bool {
	if p.cfg.ShardBudgetGBHr <= 0 {
		return true
	}
	if p.inFlight[j.Shard] == 0 {
		return true // shardExhausted already ruled out spent ≥ budget
	}
	return p.spent[j.Shard]+p.reserved[j.Shard]+j.estCost <= p.cfg.ShardBudgetGBHr
}

// dispatch marks j running under its table lease and records the start
// snapshot version for the commit-time staleness check.
func (p *Pool) dispatch(j *Job, now time.Duration) {
	if prev, held := p.leases[j.table]; held {
		panic(fmt.Sprintf("scheduler: lease violation on %s (held by job %d)", j.table, prev.rank))
	}
	p.leases[j.table] = j
	p.reserved[j.Shard] += j.estCost
	p.inFlight[j.Shard]++
	p.running++
	if p.running > p.stats.MaxWorkersBusy {
		p.stats.MaxWorkersBusy = p.running
	}
	j.Status = StatusRunning
	j.Attempts++
	j.Started = now
	mWaitTime.Observe((now - j.queuedSince).Seconds())
	mWorkersBusy.Set(float64(p.running))
	j.startVersion = p.versionOf(j.Candidate.Table)
	if !p.started {
		p.started = true
		p.firstStart = now
	}
	if p.queued > p.stats.MaxQueueDepth {
		p.stats.MaxQueueDepth = p.queued
	}
}

func (p *Pool) versionOf(t core.Table) int64 {
	if v, ok := t.(core.Versioned); ok {
		return v.Version()
	}
	return 0
}

// commit finishes a job whose service time elapsed: it re-reads the
// table's snapshot version and either retries (writers advanced the table
// past the staleness bound) or executes the runner and charges the shard.
func (p *Pool) commit(j *Job, now time.Duration) {
	if p.leases[j.table] != j {
		panic(fmt.Sprintf("scheduler: commit without lease on %s", j.table))
	}
	delete(p.leases, j.table)
	if parked, ok := p.parked[j.table]; ok {
		p.requeue(parked)
		delete(p.parked, j.table)
	}
	// After the spend below: a commit is the only event that loosens
	// its shard's admission or exhausts its budget.
	defer p.unblock(j.Shard)
	p.running--
	p.reserved[j.Shard] -= j.estCost
	p.inFlight[j.Shard]--
	if p.inFlight[j.Shard] <= 0 || p.reserved[j.Shard] < 0 {
		// Zero the reservation when the shard empties: interleaved float
		// adds and subtracts can leave residue that would otherwise
		// poison the admission arithmetic.
		p.reserved[j.Shard] = 0
	}
	p.stats.BusyTime += now - j.Started

	mWorkersBusy.Set(float64(p.running))

	if p.cfg.StalenessBound >= 0 {
		if adv := p.versionOf(j.Candidate.Table) - j.startVersion; adv > p.cfg.StalenessBound {
			p.stats.Conflicts++
			mConflicts.Inc()
			// The aborted attempt ran for its full service time: its
			// estimated cost is burned budget, not a free pass.
			j.wastedGBHr += j.estCost
			p.spent[j.Shard] += j.estCost
			mSchedSpend.Add(j.estCost)
			if j.Attempts >= p.cfg.MaxAttempts {
				j.Status = StatusConflicted
				mJobsConflicted.Inc()
				j.Finished = now
				j.Result = compaction.Result{
					Table:         j.table,
					Conflict:      true,
					ConflictCount: j.Attempts,
					GBHr:          j.wastedGBHr,
				}
				p.noteFinish(now)
				return
			}
			p.stats.Retries++
			mRetries.Inc()
			j.readyAt = now + p.backoff(j.Attempts)
			j.queuedSince = now
			j.Status = StatusQueued
			heap.Push(&p.waiting, j)
			p.queued++
			mQueueDepth.Set(float64(p.queued))
			return
		}
	}

	res := p.runner.Run(j.Candidate)
	p.spent[j.Shard] += res.GBHr
	mSchedSpend.Add(res.GBHr)
	// Earlier aborted attempts were already charged to the shard; fold
	// them into the job's reported cost so Report.ActualGBHr sees the
	// retries' wasted work too.
	res.GBHr += j.wastedGBHr
	j.Result = res
	j.Finished = now
	switch {
	case res.Err != nil:
		j.Status = StatusFailed
		p.stats.Failed++
		mJobsFailed.Inc()
	case res.Conflict:
		j.Status = StatusConflicted
		p.stats.Conflicts++
		mConflicts.Inc()
		mJobsConflicted.Inc()
	case res.Skipped:
		j.Status = StatusDone
		p.stats.Skipped++
		mJobsSkipped.Inc()
	default:
		j.Status = StatusDone
		p.stats.Done++
		mJobsDone.Inc()
	}
	p.noteFinish(now)
}

// unblock returns to ready the blocked jobs shard now admits. Once the
// shard's budget is exhausted it returns every waiting, parked and
// blocked job of the shard, so the pass that reaches each one defers it
// where a priority-order walk of the whole queue would.
func (p *Pool) unblock(shard int) {
	exhausted := p.shardExhausted(shard)
	blocked := p.blocked[shard]
	p.blocked[shard] = blocked[:0]
	for _, b := range blocked {
		if exhausted || p.shardAdmits(b) {
			heap.Push(&p.ready, b)
		} else {
			p.blocked[shard] = append(p.blocked[shard], b)
		}
	}
	if !exhausted {
		return
	}
	waiting := p.waiting.jobs
	p.waiting.jobs = waiting[:0]
	for _, w := range waiting {
		if w.Shard == shard {
			heap.Push(&p.ready, w)
		} else {
			p.waiting.jobs = append(p.waiting.jobs, w)
		}
	}
	heap.Init(&p.waiting)
	for table, parked := range p.parked {
		if parked[0].Shard == shard {
			p.requeue(parked)
			delete(p.parked, table)
		}
	}
}

// requeue returns set-aside jobs to the ready heap.
func (p *Pool) requeue(js []*Job) {
	for _, j := range js {
		heap.Push(&p.ready, j)
	}
}

// noteFinish records a terminal transition: it closes the makespan
// window.
func (p *Pool) noteFinish(now time.Duration) {
	if now > p.lastFinish {
		p.lastFinish = now
	}
}

// backoff returns the wait before attempt n+1: exponential in the attempt
// count, capped, with ±20% deterministic jitter.
func (p *Pool) backoff(attempt int) time.Duration {
	d := p.cfg.RetryBase
	for i := 1; i < attempt && d < p.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > p.cfg.RetryMax {
		d = p.cfg.RetryMax
	}
	return time.Duration(p.rng.Jitter(float64(d), 0.2))
}

// serviceTime models j's worker occupancy from its decide-time cost
// estimate.
func (p *Pool) serviceTime(j *Job) time.Duration {
	return max(time.Duration(j.estCost/p.cfg.ExecutorMemoryGB*float64(time.Hour)), MinServiceTime)
}

// finalize closes the books on a drained cycle: terminal-conflict
// aggregates, makespan, and the per-shard spend snapshot.
func (p *Pool) finalize() Stats {
	p.stats.Conflicted = 0
	for i := range p.jobs {
		if p.jobs[i].Status == StatusConflicted {
			p.stats.Conflicted++
		}
	}
	if p.started {
		p.stats.Makespan = p.lastFinish - p.firstStart
		mMakespan.Observe(p.stats.Makespan.Seconds())
		mOccupancy.Observe(p.stats.Utilization())
	}
	p.stats.SpentGBHr = append([]float64(nil), p.spent...)
	return p.stats
}

// Jobs returns every job in rank order (inspect after Run).
func (p *Pool) Jobs() []Job { return p.jobs }

// Idle reports whether the pool has neither queued nor running jobs.
func (p *Pool) Idle() bool { return p.queued == 0 && p.running == 0 }

// FoldInto adds every terminal job's outcome to a core report, so the
// scheduled act phase feeds the same estimator/feedback loop as the
// serial one.
func (p *Pool) FoldInto(rep *core.Report) {
	rep.Results = slices.Grow(rep.Results, len(p.jobs))
	for i := range p.jobs {
		j := &p.jobs[i]
		switch j.Status {
		case StatusQueued, StatusRunning:
			continue
		}
		rep.AddResult(j.Candidate, j.Result)
	}
}
