package scheduler

import (
	"fmt"
	"time"
)

// Run drains the pool on its event queue: workers are modeled job slots,
// service times come from each job's cost estimate (see
// Config.ExecutorMemoryGB), and every dispatch, commit, and backoff
// retry is an event on the queue. The run is fully deterministic: the
// same selection, config, and seed produce byte-identical stats and
// results.
//
// Other processes (live writers racing the compactor, metric samplers)
// may schedule their own events on the queue before or during the run;
// they interleave with scheduler events in timestamp order.
func (p *Pool) Run() Stats {
	p.kick()
	p.q.RunAll()
	if !p.Idle() {
		// Every queued job is either dispatchable, backoff-delayed (a
		// wake event exists), or budget-deferred on sight — an empty
		// event queue with work left means the pool lost an event.
		panic(fmt.Sprintf("scheduler: event queue drained with %d jobs queued, %d running",
			p.queued, p.running))
	}
	return p.finalize()
}

// kick dispatches jobs onto idle workers until none is runnable, then —
// if jobs are only blocked on backoff windows — arms a wake event at the
// earliest expiry.
func (p *Pool) kick() {
	now := p.q.Clock().Now()
	var earliest time.Duration
	for p.running < p.cfg.Workers {
		j, er := p.next(now)
		if er > 0 && (earliest == 0 || er < earliest) {
			earliest = er
		}
		if j == nil {
			break
		}
		p.dispatch(j, now)
		p.q.ScheduleAfter(p.serviceTime(j), func() { p.complete(j) })
	}
	if p.running < p.cfg.Workers && earliest > 0 && (p.wakeAt == 0 || earliest < p.wakeAt || p.wakeAt <= now) {
		p.wakeAt = earliest
		p.q.ScheduleAt(earliest, p.kick)
	}
}

// complete fires when a job's service time elapses: the job commits (or
// aborts and re-queues with backoff), its worker frees, and the freed
// slot immediately pulls more work.
func (p *Pool) complete(j *Job) {
	p.commit(j, p.q.Clock().Now())
	p.kick()
}
