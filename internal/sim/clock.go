// Package sim provides the deterministic simulation kernel used by every
// substrate in this repository: a virtual clock, a discrete-event queue,
// and a seeded random number generator.
//
// All simulated components take their notion of time from a *Clock and all
// randomness from an *RNG, which makes every experiment reproducible from a
// seed (the paper's NFR2, explainability/determinism).
package sim

import (
	"fmt"
	"time"
)

// Clock is a virtual clock. The zero value is a clock at virtual time zero,
// ready to use. Time only moves when Advance or Set is called, so a
// simulation is in full control of its timeline.
type Clock struct {
	now time.Duration
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time as an offset from the simulation
// epoch.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. Advancing by a negative duration
// panics: simulated time never flows backwards.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance by negative duration %v", d))
	}
	c.now += d
}

// Set jumps the clock to the absolute virtual time t. Setting the clock
// before its current time panics.
func (c *Clock) Set(t time.Duration) {
	if t < c.now {
		panic(fmt.Sprintf("sim: Set to %v before current time %v", t, c.now))
	}
	c.now = t
}

// Hours returns the current virtual time expressed in fractional hours.
func (c *Clock) Hours() float64 { return c.now.Hours() }
