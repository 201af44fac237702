// Package schedy is a simlint fixture: scheduler callbacks with
// blocking or concurrent operations the schedblock analyzer must
// flag, next to well-behaved ones it must not.
package schedy

import (
	"sync"

	"ddosim/internal/sim"
)

// Bad: channel operations, locks, and goroutines inside callbacks.
func bad(s *sim.Scheduler, ch chan int, mu *sync.Mutex) {
	s.Schedule(sim.Second, fixture, func() {
		ch <- 1
	})
	s.ScheduleAt(sim.Second, fixture, func() {
		mu.Lock()
		defer mu.Unlock()
	})
	s.Schedule(sim.Second, fixture, func() {
		go func() {}()
	})
	sim.NewTicker(s, sim.Second, fixture, func() {
		<-ch
	})
}

// Good: callbacks that stay on the event loop.
func good(s *sim.Scheduler, counter *int) {
	s.Schedule(sim.Second, fixture, func() {
		*counter++
	})
	// Channel use outside a callback is not schedblock's concern.
	ready := make(chan struct{})
	close(ready)
}

// fixture labels the fixture's events; declared last so the findings
// above keep their positions.
var fixture = sim.NewSource("fixture")
