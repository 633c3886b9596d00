package sim

import "time"

// Event is a closure scheduled to run at a virtual time. Events scheduled
// for the same instant run in scheduling order (the seq field breaks ties),
// which keeps simulations deterministic.
type Event struct {
	At  time.Duration
	Fn  func()
	seq int64
}

// before is the queue order: At, then scheduling order. seq is unique,
// so it is a strict total order.
func (e *Event) before(o *Event) bool {
	return e.At < o.At || (e.At == o.At && e.seq < o.seq)
}

// EventQueue is a discrete-event scheduler bound to a Clock. Running the
// queue advances the clock to each event's timestamp before invoking it.
//
// Events are stored by value in a hand-written binary heap:
// container/heap would box every pushed Event through an interface, so
// scheduling would allocate once per event. Once the heap's backing
// array has grown, ScheduleAt allocates nothing.
type EventQueue struct {
	clock *Clock
	h     []Event
	seq   int64
}

// NewEventQueue returns an event queue driving clock.
func NewEventQueue(clock *Clock) *EventQueue {
	return &EventQueue{clock: clock}
}

// Clock returns the clock this queue drives.
func (q *EventQueue) Clock() *Clock { return q.clock }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// ScheduleAt enqueues fn to run at absolute virtual time t. Scheduling in
// the past panics.
func (q *EventQueue) ScheduleAt(t time.Duration, fn func()) {
	if t < q.clock.Now() {
		panic("sim: ScheduleAt in the past")
	}
	q.seq++
	q.h = append(q.h, Event{At: t, Fn: fn, seq: q.seq})
	h := q.h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// ScheduleAfter enqueues fn to run d after the current virtual time.
func (q *EventQueue) ScheduleAfter(d time.Duration, fn func()) {
	q.ScheduleAt(q.clock.Now()+d, fn)
}

// ScheduleEvery enqueues fn to run every period until (and excluding)
// events at or after until. The first run is one period from now.
func (q *EventQueue) ScheduleEvery(period, until time.Duration, fn func()) {
	if period <= 0 {
		panic("sim: ScheduleEvery non-positive period")
	}
	var rearm func()
	rearm = func() {
		fn()
		next := q.clock.Now() + period
		if next < until {
			q.ScheduleAt(next, rearm)
		}
	}
	first := q.clock.Now() + period
	if first < until {
		q.ScheduleAt(first, rearm)
	}
}

// pop removes and returns the earliest event.
func (q *EventQueue) pop() Event {
	h := q.h
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = Event{} // drop the closure reference
	h = h[:n]
	q.h = h
	i := 0
	for {
		first, l, r := i, 2*i+1, 2*i+2
		if l < n && h[l].before(&h[first]) {
			first = l
		}
		if r < n && h[r].before(&h[first]) {
			first = r
		}
		if first == i {
			return e
		}
		h[i], h[first] = h[first], h[i]
		i = first
	}
}

// RunUntil executes events in timestamp order up to and including time t,
// advancing the clock to each event and finally to t. It returns the
// number of events executed.
func (q *EventQueue) RunUntil(t time.Duration) int {
	n := 0
	for len(q.h) > 0 && q.h[0].At <= t {
		q.run(q.pop())
		n++
	}
	if t > q.clock.Now() {
		q.clock.Set(t)
	}
	return n
}

// RunAll executes every pending event (including events scheduled by other
// events) and returns the number executed.
func (q *EventQueue) RunAll() int {
	n := 0
	for len(q.h) > 0 {
		q.run(q.pop())
		n++
	}
	return n
}

// run advances the clock to e and invokes it.
func (q *EventQueue) run(e Event) {
	if e.At > q.clock.Now() {
		q.clock.Set(e.At)
	}
	e.Fn()
}
