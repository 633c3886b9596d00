// Package scheduler is AutoComp's concurrent execution plane: it takes
// the ranked, selected candidates a core.Service decided on and runs them
// on a pool of W workers over S budget shards, instead of the serial
// one-after-another loop of the act phase.
//
// The plane models what a production compaction fleet actually contends
// with (§4.4, §7; see also "Online Bigtable Merge Compaction",
// arXiv:1407.3008, for scheduling merges under resource constraints):
//
//   - a priority job queue fed by the ranked plan, with linear aging:
//     of jobs submitted at different instants, the longer-waiting one
//     gains priority. The fleet submits each cycle's plan in one Submit
//     on a fresh Pool, so there aging never reorders it;
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
//   - a discrete-event driver: the Pool runs on a sim.Clock and its
//     sim.EventQueue (simulated service times, reproducible from a
//     seed), interleaved with whatever else schedules events there, such
//     as live writers racing the compactor.
//
// The Pool itself is a single-threaded state machine; RunSim in sim.go
// drives it. Each queued job sits in exactly one of five places: the
// submitted run (jobs from Submit, already in dispatch order), the ready
// heap (priority key descending, then submission order), the waiting
// heap (retries in backoff, by expiry), a per-table parked list (popped
// while its table's lease was held) or a per-shard blocked list (popped
// while its shard's budget refused admission). Backoff expiry, lease
// release, commits and budget exhaustion return jobs to the ready heap,
// and a dispatch pops whichever of the run's head and the heap's top
// comes first, so it costs O(log n) instead of re-walking the jobs that
// cannot run, yet it picks the job, defers the jobs and reports the
// earliest backoff expiry that a priority-order walk of the whole queue
// would.
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

	// AgingRatePerHour is how many priority points a queued job gains
	// per hour of waiting (linear aging); one Submit's jobs share an
	// enqueue instant, so aging never reorders them. Zero means
	// DefaultAgingRate; negative disables aging.
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
	// DefaultAgingRate is the priority points a queued job gains per
	// hour when Config.AgingRatePerHour is unset.
	DefaultAgingRate = 1.0
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
	if cfg.AgingRatePerHour == 0 {
		cfg.AgingRatePerHour = DefaultAgingRate
	} else if cfg.AgingRatePerHour < 0 {
		cfg.AgingRatePerHour = 0
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
	// BasePriority comes from rank order at submission (higher = runs
	// earlier); aging adds to it while the job waits.
	BasePriority float64
	// Status is the job's current lifecycle state.
	Status Status
	// Attempts counts execution attempts (including the successful one).
	Attempts int
	// Result is the executed outcome (terminal states only).
	Result compaction.Result

	// Enqueued, Started, Finished are pool-clock instants.
	Enqueued time.Duration
	Started  time.Duration
	Finished time.Duration

	// table is the candidate's table name and key the time-independent
	// priority sort key, both fixed at Submit. Comparing
	// base + rate·(now − enqueued) across jobs is equivalent to comparing
	// base − rate·enqueued, so linear aging never needs re-sorting.
	table string
	key   float64

	seq          int64
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

// jobHeap is a binary heap of queued jobs ordered by before: byPriority
// for the ready queue, byReadyAt for the waiting queue.
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

// byPriority is dispatch order: key descending, then submission order.
func byPriority(a, b *Job) bool { return a.key > b.key || (a.key == b.key && a.seq < b.seq) }

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

// Pool is the scheduler state machine. It is not safe for concurrent use;
// the sim driver is single-threaded.
type Pool struct {
	cfg    Config
	clock  *sim.Clock
	runner core.Runner
	rng    *sim.RNG

	// Every queued job is in exactly one of run[head:], ready, waiting,
	// parked and blocked; queued counts them.
	run     []*Job            // submitted in dispatch order, key desc
	head    int               // run's next job
	ready   jobHeap           // key desc, seq asc
	waiting jobHeap           // retries in backoff, readyAt asc
	parked  map[string][]*Job // by table: popped while its lease was held
	blocked [][]*Job          // by shard: popped while admission refused it
	queued  int

	jobs     []*Job // submission order, into one slab per Submit
	leases   map[string]*Job
	running  int
	spent    []float64
	reserved []float64 // estimated GBHr of in-flight jobs, per shard
	inFlight []int     // in-flight job count per shard
	seq      int64

	started    bool
	firstStart time.Duration
	lastFinish time.Duration
	stats      Stats

	// notify, when set by a driver, is called after Submit enqueues new
	// jobs so idle workers pick them up mid-run.
	notify func()
}

// New builds a pool that executes jobs with runner and reads time from
// clock, which RunSim's event queue must share.
func New(cfg Config, runner core.Runner, clock *sim.Clock) *Pool {
	cfg = cfg.withDefaults()
	return &Pool{
		cfg:      cfg,
		clock:    clock,
		runner:   runner,
		rng:      sim.NewRNG(cfg.Seed),
		ready:    jobHeap{before: byPriority},
		waiting:  jobHeap{before: byReadyAt},
		parked:   make(map[string][]*Job),
		blocked:  make([][]*Job, cfg.Shards),
		leases:   make(map[string]*Job),
		spent:    make([]float64, cfg.Shards),
		reserved: make([]float64, cfg.Shards),
		inFlight: make([]int, cfg.Shards),
		stats:    Stats{Workers: cfg.Workers, Shards: cfg.Shards},
	}
}

// Submit enqueues the ranked, selected candidates. Rank order sets base
// priority: the first candidate gets the highest.
//
// One call's jobs share an enqueue instant, so their keys fall strictly
// in submission order and they join the run as they come, with no heap
// push. Only a mid-run Submit can bring a job that sorts before the
// run's tail; that job goes to the ready heap instead.
func (p *Pool) Submit(selected []*core.Candidate) {
	if len(selected) == 0 {
		return
	}
	now := p.clock.Now()
	if p.head == len(p.run) {
		p.run, p.head = p.run[:0], 0
	}
	p.jobs = slices.Grow(p.jobs, len(selected))
	p.run = slices.Grow(p.run, len(selected))
	slab := make([]Job, len(selected))
	for i, c := range selected {
		p.seq++
		name := c.Table.FullName()
		j := &slab[i]
		*j = Job{
			Candidate:    c,
			Shard:        core.ShardOf(name, p.cfg.Shards),
			BasePriority: float64(len(selected) - i),
			Enqueued:     now,
			queuedSince:  now,
			seq:          p.seq,
			table:        name,
		}
		j.key = j.BasePriority - p.cfg.AgingRatePerHour*now.Hours()
		if est := c.Trait(core.SlotComputeCost); est > 0 {
			j.estCost = est
		}
		p.jobs = append(p.jobs, j)
		if p.head == len(p.run) || byPriority(p.run[len(p.run)-1], j) {
			p.run = append(p.run, j)
		} else {
			heap.Push(&p.ready, j)
		}
	}
	p.queued += len(selected)
	p.stats.Submitted += len(selected)
	mQueueDepth.Set(float64(p.queued))
	mSubmitted.Add(float64(len(selected)))
	if p.notify != nil {
		p.notify()
	}
}

// next pops the highest-priority runnable job, or nil. A job is runnable
// when its backoff window has passed, no lease is held on its table, and
// its shard still has budget. Jobs whose shard is exhausted are deferred
// on the spot (backpressure). earliestReady reports the soonest backoff
// expiry among the queued jobs (0 when none), so drivers know when to
// wake.
//
// Popped jobs that cannot run yet are parked on their table's lease or
// blocked on their shard's admission until a commit frees them, so every
// job next pops either runs, is deferred, or is set aside once.
func (p *Pool) next(now time.Duration) (j *Job, earliestReady time.Duration) {
	for p.waiting.Len() > 0 && p.waiting.jobs[0].readyAt <= now {
		heap.Push(&p.ready, heap.Pop(&p.waiting))
	}
	for j == nil && (p.head < len(p.run) || p.ready.Len() > 0) {
		// The run is sorted and the heap yields its minimum, so the
		// first of the two under byPriority is the queue's first.
		var cand *Job
		if p.head < len(p.run) && (p.ready.Len() == 0 || byPriority(p.run[p.head], p.ready.jobs[0])) {
			cand = p.run[p.head]
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
		panic(fmt.Sprintf("scheduler: lease violation on %s (held by job %d)", j.table, prev.seq))
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
	for _, j := range p.jobs {
		if j.Status == StatusConflicted {
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

// Jobs returns every submitted job in submission order (inspect after the
// drivers drain the pool).
func (p *Pool) Jobs() []*Job { return p.jobs }

// Idle reports whether the pool has neither queued nor running jobs.
func (p *Pool) Idle() bool { return p.queued == 0 && p.running == 0 }

// FoldInto adds every terminal job's outcome to a core report, so the
// scheduled act phase feeds the same estimator/feedback loop as the
// serial one.
func (p *Pool) FoldInto(rep *core.Report) {
	rep.Results = slices.Grow(rep.Results, len(p.jobs))
	for _, j := range p.jobs {
		switch j.Status {
		case StatusQueued, StatusRunning:
			continue
		}
		rep.AddResult(j.Candidate, j.Result)
	}
}
