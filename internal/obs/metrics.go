package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically-increasing uint64 metric. Methods are
// nil-safe and safe for concurrent use: the simulation kernel is
// single-threaded, but an exporter may read from another goroutine.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reports the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 metric. Methods are nil-safe and safe
// for concurrent use (the value is an atomically-updated bit pattern).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reports the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. Get-or-create accessors make callers
// independent of registration order; names follow Prometheus
// conventions (snake_case, _total suffix on counters). Methods are
// nil-safe (a nil registry hands out nil metrics, whose methods are
// no-ops) and safe for concurrent use: the maps are mutex-guarded, and
// the metric values themselves are atomic.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		help:     make(map[string]string),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.help[name] = help
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.help[name] = help
	}
	return g
}

// CounterValue reports a counter's value without creating it.
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// GaugeValue reports a gauge's value without creating it.
func (r *Registry) GaugeValue(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	g := r.gauges[name]
	r.mu.Unlock()
	return g.Value()
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus dumps every metric in the Prometheus text exposition
// format, sorted by name so output is deterministic. A name registered
// as both a counter and a gauge (a misuse, but possible) is emitted
// exactly once, as the counter — previously such a name was dumped once
// per type, destabilizing the artifact.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges))
	seen := make(map[string]bool, cap(names))
	addName := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for n := range r.counters {
		addName(n)
	}
	for n := range r.gauges {
		addName(n)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, n := range names {
		if help := r.help[n]; help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", n, help)
		}
		if c := r.counters[n]; c != nil {
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, c.Value())
		} else {
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", n, n, formatFloat(r.gauges[n].Value()))
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}
