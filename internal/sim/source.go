package sim

import (
	"fmt"
	"sync"
)

// Source labels scheduled events with the subsystem that scheduled
// them ("net.tx", "churn.epoch", ...), so the kernel can count the
// events it delivers per source. A Source is a small integer,
// registered once by name with NewSource, normally in a package-level
// var. Every Schedule, ScheduleAt and NewTicker call names one. The
// zero Source, named "", is registered by no package, so a run's
// EventsBySource()[0] reads 0.
type Source uint8

// maxSources bounds the registry. The kernel counts delivered events
// in a fixed array indexed by Source, so counting never allocates and
// never needs a bounds check.
const maxSources = 1 << 8

// sources is the process-wide registration table, filled at start-up
// by package-level vars. A name is written once, before its id is
// handed out, and never changes, so the kernel reads names without
// the lock.
var sources = struct {
	mu    sync.Mutex
	names [maxSources]string
	ids   map[string]Source
}{ids: map[string]Source{"": 0}}

// NewSource returns the Source registered under name, registering it
// on first use. Registering a name twice returns the same Source, and
// the empty name is the zero Source.
func NewSource(name string) Source {
	sources.mu.Lock()
	defer sources.mu.Unlock()
	if id, ok := sources.ids[name]; ok {
		return id
	}
	n := len(sources.ids)
	if n == maxSources {
		panic(fmt.Sprintf("sim: NewSource(%q): all %d event sources are registered", name, maxSources))
	}
	id := Source(n)
	sources.names[id] = name
	sources.ids[name] = id
	return id
}

// String returns the name the Source was registered under.
func (s Source) String() string { return sources.names[s] }
