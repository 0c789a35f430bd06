// Package sim provides the deterministic simulation kernel shared by every
// machine model in this repository: a cycle-stepped scheduler for
// synchronous hardware models, an event-driven engine that skips the
// cycles in which no component can act, and a seeded pseudo-random number
// generator so that all experiments are reproducible run-to-run.
package sim

import "math"

// Cycle is a point in simulated time, measured in machine cycles.
type Cycle uint64

// Never is the sentinel "no pending event" cycle: later than any real
// simulated time. Event-aware components return it from NextEvent when
// they hold no work at all.
const Never = Cycle(math.MaxUint64)

// Component is a piece of synchronous hardware. On every cycle the
// scheduler calls Step exactly once with the current time. Components must
// not assume any particular ordering relative to other components within a
// cycle; anything that needs strict phase ordering should be registered as
// separate components in the desired order.
type Component interface {
	Step(now Cycle)
}

// ComponentFunc adapts an ordinary function to the Component interface.
type ComponentFunc func(now Cycle)

// Step calls f(now).
func (f ComponentFunc) Step(now Cycle) { f(now) }

// EventAware is an optional Component extension for idle skipping. A
// component that knows when its next state change can possibly happen
// reports it from NextEvent: `now` means "step me this cycle", a future
// cycle means "stepping me before then is a no-op", and Never means "I
// hold no work". Components that cannot promise this simply don't
// implement the interface and are stepped every cycle.
type EventAware interface {
	Component
	NextEvent(now Cycle) Cycle
}

// Scheduler drives a set of Components in lockstep. Components are stepped
// in registration order, which is part of the simulation's deterministic
// contract: the same program on the same machine configuration always
// produces the same cycle counts.
type Scheduler struct {
	components []Component
	now        Cycle
}

// NewScheduler returns an empty scheduler at cycle 0.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Register adds c to the step list. Registration order is evaluation order.
func (s *Scheduler) Register(c Component) { s.components = append(s.components, c) }

// Now reports the current cycle.
func (s *Scheduler) Now() Cycle { return s.now }

// Tick advances simulated time by one cycle, stepping every component.
func (s *Scheduler) Tick() {
	for _, c := range s.components {
		c.Step(s.now)
	}
	s.now++
}

// Run advances until the predicate done reports true or limit cycles have
// elapsed, and returns the number of cycles executed along with whether the
// predicate was satisfied. done is evaluated before each cycle, so a
// simulation that is already finished costs zero cycles.
func (s *Scheduler) Run(done func() bool, limit Cycle) (elapsed Cycle, ok bool) {
	start := s.now
	for s.now-start < limit {
		if done() {
			return s.now - start, true
		}
		s.Tick()
	}
	return s.now - start, done()
}
