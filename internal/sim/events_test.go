package sim

import (
	"fmt"
	"testing"
	"time"
)

// TestSameInstantOrderingStableAtScale schedules many events at one
// instant from interleaved "sources" and checks they run in exact
// scheduling order — the seq tie-break must be a total order, not a
// heap-shape accident.
func TestSameInstantOrderingStableAtScale(t *testing.T) {
	q := NewEventQueue(NewClock())
	const n = 500
	var order []int
	for i := 0; i < n; i++ {
		i := i
		// Mix of absolute and relative scheduling onto the same instant.
		if i%2 == 0 {
			q.ScheduleAt(time.Hour, func() { order = append(order, i) })
		} else {
			q.ScheduleAfter(time.Hour, func() { order = append(order, i) })
		}
	}
	if got := q.RunAll(); got != n {
		t.Fatalf("ran %d events, want %d", got, n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; same-instant ordering not stable", i, v)
		}
	}
}

// TestSameInstantEventSchedulingSameInstant: an event that schedules a
// new event at the *current* instant must see it run in the same drain,
// after every previously scheduled same-instant event.
func TestSameInstantEventSchedulingSameInstant(t *testing.T) {
	c := NewClock()
	q := NewEventQueue(c)
	var order []string
	q.ScheduleAt(time.Minute, func() {
		order = append(order, "a")
		q.ScheduleAt(c.Now(), func() { order = append(order, "a-child") })
	})
	q.ScheduleAt(time.Minute, func() { order = append(order, "b") })
	n := q.RunUntil(time.Minute)
	if n != 3 {
		t.Fatalf("ran %d events, want 3 (child must run in the same drain)", n)
	}
	want := []string{"a", "b", "a-child"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleAtPastPanicsAfterEventAdvance(t *testing.T) {
	c := NewClock()
	q := NewEventQueue(c)
	q.ScheduleAt(time.Hour, func() {})
	q.RunAll() // clock now at 1h
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt(30m) after advancing to 1h did not panic")
		}
	}()
	q.ScheduleAt(30*time.Minute, func() {})
}

func TestScheduleAtExactlyNowAllowed(t *testing.T) {
	c := NewClock()
	c.Advance(time.Hour)
	q := NewEventQueue(c)
	ran := false
	q.ScheduleAt(time.Hour, func() { ran = true }) // t == Now: not "the past"
	if q.RunAll() != 1 || !ran {
		t.Fatal("event at exactly Now did not run")
	}
	if c.Now() != time.Hour {
		t.Fatalf("clock moved to %v", c.Now())
	}
}

func TestScheduleAfterNegativePanics(t *testing.T) {
	c := NewClock()
	c.Advance(time.Hour)
	q := NewEventQueue(c)
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAfter(-2h) did not panic")
		}
	}()
	q.ScheduleAfter(-2*time.Hour, func() {})
}

// TestDrainWhileEventsScheduleNewEvents: RunUntil must execute events
// scheduled by other events when they land inside the horizon, skip the
// ones that land beyond it, and leave the clock exactly at the horizon.
func TestDrainWhileEventsScheduleNewEvents(t *testing.T) {
	c := NewClock()
	q := NewEventQueue(c)
	var fired []string
	q.ScheduleAt(time.Minute, func() {
		fired = append(fired, "t1")
		q.ScheduleAfter(time.Minute, func() {
			fired = append(fired, "t2")
			q.ScheduleAfter(10*time.Minute, func() { fired = append(fired, "t12") })
		})
	})
	n := q.RunUntil(5 * time.Minute)
	if n != 2 {
		t.Fatalf("ran %d events, want 2 (t12 is beyond the horizon)", n)
	}
	if len(fired) != 2 || fired[0] != "t1" || fired[1] != "t2" {
		t.Fatalf("fired = %v", fired)
	}
	if c.Now() != 5*time.Minute {
		t.Fatalf("clock = %v, want horizon 5m", c.Now())
	}
	if q.Len() != 1 {
		t.Fatalf("pending = %d, want the deferred t12", q.Len())
	}
	if q.RunAll() != 1 || len(fired) != 3 || fired[2] != "t12" {
		t.Fatalf("deferred event lost: fired = %v", fired)
	}
}

// TestRunAllFanOutCascade drains a geometric cascade where each event
// schedules two more: the queue must keep up with growth generated
// mid-drain and execute everything in timestamp order.
func TestRunAllFanOutCascade(t *testing.T) {
	c := NewClock()
	q := NewEventQueue(c)
	var times []time.Duration
	const depth = 6
	var spawn func(level int)
	spawn = func(level int) {
		times = append(times, c.Now())
		if level >= depth {
			return
		}
		q.ScheduleAfter(time.Second, func() { spawn(level + 1) })
		q.ScheduleAfter(2*time.Second, func() { spawn(level + 1) })
	}
	q.ScheduleAt(time.Second, func() { spawn(1) })
	n := q.RunAll()
	want := 1<<depth - 1 // full binary tree of events
	if n != want {
		t.Fatalf("ran %d events, want %d", n, want)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("timestamps regressed at %d: %v", i, times[:i+1])
		}
	}
}

func TestScheduleEveryNonPositivePeriodPanics(t *testing.T) {
	q := NewEventQueue(NewClock())
	for _, period := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ScheduleEvery(%v) did not panic", period)
				}
			}()
			q.ScheduleEvery(period, time.Hour, func() {})
		}()
	}
}

func TestScheduleEveryStopsWhenCallbackOverrunsUntil(t *testing.T) {
	c := NewClock()
	q := NewEventQueue(c)
	ticks := 0
	q.ScheduleEvery(time.Minute, 5*time.Minute, func() {
		ticks++
		// The callback itself drags virtual time past the until bound.
		c.Advance(10 * time.Minute)
	})
	q.RunAll()
	if ticks != 1 {
		t.Fatalf("ticks = %d, want 1 (rearm past until must stop)", ticks)
	}
}

func TestEventQueueLenTracksPendingExactly(t *testing.T) {
	q := NewEventQueue(NewClock())
	for i := 1; i <= 10; i++ {
		q.ScheduleAt(time.Duration(i)*time.Second, func() {})
		if q.Len() != i {
			t.Fatalf("Len = %d after %d schedules", q.Len(), i)
		}
	}
	q.RunUntil(4 * time.Second)
	if q.Len() != 6 {
		t.Fatalf("Len = %d after partial drain, want 6", q.Len())
	}
	q.RunAll()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after RunAll", q.Len())
	}
}

func TestEventQueueManyClocksIndependent(t *testing.T) {
	// Two queues over two clocks never interfere, even with interleaved
	// scheduling (regression guard for shared-state bugs in the heap).
	c1, c2 := NewClock(), NewClock()
	q1, q2 := NewEventQueue(c1), NewEventQueue(c2)
	ran1, ran2 := 0, 0
	for i := 1; i <= 20; i++ {
		q1.ScheduleAt(time.Duration(i)*time.Second, func() { ran1++ })
		q2.ScheduleAt(time.Duration(i)*time.Minute, func() { ran2++ })
	}
	q1.RunAll()
	if ran1 != 20 || ran2 != 0 {
		t.Fatalf("ran1=%d ran2=%d", ran1, ran2)
	}
	if c2.Now() != 0 {
		t.Fatalf("draining q1 moved c2 to %v", c2.Now())
	}
	q2.RunAll()
	if ran2 != 20 {
		t.Fatalf("ran2=%d", ran2)
	}
	if fmt.Sprint(c1.Now()) == fmt.Sprint(c2.Now()) {
		t.Fatal("clocks coincidentally equal; test misconfigured")
	}
}

// TestEventQueueAllocsFree pins events to the queue's own storage: once
// the heap has grown, scheduling and draining 10,000 events with a
// pre-built callback allocates nothing.
func TestEventQueueAllocsFree(t *testing.T) {
	q := NewEventQueue(NewClock())
	ran := 0
	fn := func() { ran++ }
	burst := func() {
		for i := 0; i < 10_000; i++ {
			if i%2 == 0 {
				q.ScheduleAfter(time.Duration(i%97)*time.Second, fn)
			} else {
				q.ScheduleAt(q.Clock().Now()+time.Duration(i%89)*time.Second, fn)
			}
		}
		q.RunAll()
	}
	burst() // grow the heap
	if allocs := testing.AllocsPerRun(10, burst); allocs != 0 {
		t.Fatalf("scheduling and draining 10k events allocates %v, want 0", allocs)
	}
	if ran != 12*10_000 {
		t.Fatalf("ran %d events, want %d", ran, 12*10_000)
	}
}

// refQueue is the reference event order: a linear scan that picks the
// pending event with the smallest At, the earliest scheduled on a tie.
type refQueue struct {
	pending []refEvent // scheduling order
}

type refEvent struct {
	at time.Duration
	id int
}

func (r *refQueue) pop() refEvent {
	best := 0
	for i, e := range r.pending {
		if e.at < r.pending[best].at {
			best = i
		}
	}
	e := r.pending[best]
	r.pending = append(r.pending[:best], r.pending[best+1:]...)
	return e
}

// TestEventQueueOrderProperty runs random schedules against refQueue:
// absolute and relative scheduling over a few distinct instants (so
// many events tie), events scheduling children at the current instant
// and later, and drains split at random RunUntil horizons. Every event
// must run in the reference's order and at its instant, and each
// RunUntil must stop exactly where the reference has nothing left at or
// before its horizon.
func TestEventQueueOrderProperty(t *testing.T) {
	offsets := []time.Duration{0, 0, time.Minute, 2 * time.Minute, 5 * time.Minute}
	var ties int
	for seed := int64(1); seed <= 300; seed++ {
		rng := NewRNG(seed)
		c := NewClock()
		q := NewEventQueue(c)
		ref := &refQueue{}
		budget := 50 + rng.Intn(400)
		scheduled, executed := 0, 0
		var schedule func()
		run := func(id int) func() {
			return func() {
				want := ref.pop()
				if want.id != id || c.Now() != want.at {
					t.Fatalf("seed %d: event %d ran at %v; the reference runs event %d at %v",
						seed, id, c.Now(), want.id, want.at)
				}
				for _, e := range ref.pending {
					if e.at == want.at {
						ties++
						break
					}
				}
				executed++
				for n := rng.Intn(3); n > 0; n-- {
					schedule()
				}
			}
		}
		schedule = func() {
			if scheduled == budget {
				return
			}
			id := scheduled
			scheduled++
			off := offsets[rng.Intn(len(offsets))]
			at := c.Now() + off
			if rng.Bernoulli(0.5) {
				q.ScheduleAt(at, run(id))
			} else {
				q.ScheduleAfter(off, run(id))
			}
			ref.pending = append(ref.pending, refEvent{at: at, id: id})
		}
		for scheduled < budget || q.Len() > 0 {
			for n := 1 + rng.Intn(8); n > 0; n-- {
				schedule()
			}
			if rng.Bernoulli(0.2) {
				q.RunAll()
				continue
			}
			horizon := c.Now() + offsets[rng.Intn(len(offsets))]
			before := executed
			if n := q.RunUntil(horizon); n != executed-before {
				t.Fatalf("seed %d: RunUntil(%v) reported %d events, ran %d", seed, horizon, n, executed-before)
			}
			if c.Now() != horizon {
				t.Fatalf("seed %d: clock at %v after RunUntil(%v)", seed, c.Now(), horizon)
			}
			for _, e := range ref.pending {
				if e.at <= horizon {
					t.Fatalf("seed %d: RunUntil(%v) left event %d at %v", seed, horizon, e.id, e.at)
				}
			}
		}
		if executed != scheduled || len(ref.pending) != 0 {
			t.Fatalf("seed %d: scheduled %d events, ran %d", seed, scheduled, executed)
		}
	}
	if ties == 0 {
		t.Fatal("no two events ever shared an instant; the property lost its teeth")
	}
}
