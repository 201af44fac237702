// Package inlit exercises the pktown ownership analyzer inside
// scheduled function literals, which are analysis units of their own:
// the golden file pins a leak and a use-after-release that happen
// entirely within a callback body.
package inlit

import (
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// BadLeakInCallback schedules a callback that allocates a packet and
// returns early on the drop path without releasing it.
func BadLeakInCallback(s *sim.Scheduler, w *netsim.Network, drop bool) {
	s.Schedule(1, func() {
		p := w.AllocPacket()
		if drop {
			return
		}
		w.ReleasePacket(p)
	})
}

// BadUseAfterReleaseInCallback schedules a callback that reads a
// packet after returning it to the pool.
func BadUseAfterReleaseInCallback(s *sim.Scheduler, w *netsim.Network, sizes *[]int) {
	s.Schedule(1, func() {
		p := w.AllocPacket()
		w.ReleasePacket(p)
		*sizes = append(*sizes, p.Size())
	})
}
