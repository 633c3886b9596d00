package scheduler

import (
	"fmt"
	"time"

	"autocomp/internal/sim"
)

// RunSim drains the pool on a discrete-event queue: workers are modeled
// job slots, service times come from each job's cost estimate (see
// Config.ExecutorMemoryGB), and every dispatch, commit, and backoff
// retry is an event on q. The pool's clock must be q's clock. The run
// is fully deterministic: the same submitted plan, config, and seed
// produce byte-identical stats and results.
//
// Other processes (live writers racing the compactor, metric samplers)
// may schedule their own events on q before or during the run; they
// interleave with scheduler events in timestamp order.
func RunSim(p *Pool, q *sim.EventQueue) Stats {
	if p.clock != q.Clock() {
		panic("scheduler: RunSim requires the pool to share the event queue's clock")
	}
	s := &simDriver{p: p, q: q, idle: p.cfg.Workers}
	// Late submissions (an event feeding the pool mid-run) re-kick the
	// dispatch loop even when every worker sits idle at that moment.
	p.notify = s.kick
	defer func() { p.notify = nil }()
	s.kick()
	q.RunAll()
	if !p.Idle() {
		// Every queued job is either dispatchable, backoff-delayed (a
		// wake event exists), or budget-deferred on sight — an empty
		// event queue with work left means the driver lost an event.
		panic(fmt.Sprintf("scheduler: event queue drained with %d jobs queued, %d running",
			p.queued, p.running))
	}
	return p.finalize()
}

type simDriver struct {
	p    *Pool
	q    *sim.EventQueue
	idle int
	// wakeAt dedups backoff wake events.
	wakeAt time.Duration
}

// kick dispatches jobs onto idle workers until none is runnable, then —
// if jobs are only blocked on backoff windows — arms a wake event at the
// earliest expiry.
func (s *simDriver) kick() {
	now := s.q.Clock().Now()
	var earliest time.Duration
	for s.idle > 0 {
		j, er := s.p.next(now)
		if er > 0 && (earliest == 0 || er < earliest) {
			earliest = er
		}
		if j == nil {
			break
		}
		s.idle--
		s.p.dispatch(j, now)
		d := s.p.serviceTime(j)
		s.q.ScheduleAfter(d, func() { s.complete(j) })
	}
	if s.idle > 0 && earliest > 0 && (s.wakeAt == 0 || earliest < s.wakeAt || s.wakeAt <= now) {
		s.wakeAt = earliest
		s.q.ScheduleAt(earliest, s.kick)
	}
}

// complete fires when a job's service time elapses: the job commits (or
// aborts and re-queues with backoff), its worker frees, and the freed
// slot immediately pulls more work.
func (s *simDriver) complete(j *Job) {
	now := s.q.Clock().Now()
	s.p.commit(j, now)
	s.idle++
	s.kick()
}
