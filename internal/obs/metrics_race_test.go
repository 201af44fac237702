package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentAccess hammers the registry from many
// goroutines — writers updating metrics and creating them, a reader
// dumping Prometheus text — and relies on -race to flag any
// unsynchronized access.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	g := r.Gauge("depth", "queue depth")

	const writers = 4
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				// Get-or-create from several goroutines too.
				r.Counter("events_total", "events").Add(1)
				_ = r.CounterValue("events_total")
				_ = r.GaugeValue("depth")
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			var sb strings.Builder
			_ = r.WritePrometheus(&sb)
		}
	}()
	wg.Wait()
	if got := r.CounterValue("events_total"); got != 2*writers*iters {
		t.Fatalf("events_total = %d, want %d", got, 2*writers*iters)
	}
}

// TestWritePrometheusDedupesNames pins the fix for the map-order /
// duplicate-emission hazard: a name registered as two metric types
// must be dumped exactly once.
func TestWritePrometheusDedupesNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "as counter").Add(2)
	r.Gauge("dup", "as gauge").Set(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE dup "); n != 1 {
		t.Fatalf("name dumped %d times:\n%s", n, out)
	}
	if !strings.Contains(out, "# TYPE dup counter") {
		t.Fatalf("counter should win the type conflict:\n%s", out)
	}
}
