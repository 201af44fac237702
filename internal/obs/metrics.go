package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// metric is one published row: a counter's count or a gauge's value.
type metric struct {
	name, help string
	kind       string  // "counter" or "gauge"
	count      uint64  // a counter's value
	value      float64 // a gauge's value
}

// Registry is the table of a run's metrics. Each row is published once,
// from a count the run kept, when the run has ended; names follow
// Prometheus conventions (snake_case, _total suffix on counters).
// Methods are nil-safe: a nil registry publishes nothing and reads
// zeros. Nothing is synchronised: the goroutine that ran the
// simulation writes every row and reads them back.
type Registry struct {
	rows []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter publishes a counter row. Publishing a name twice panics.
func (r *Registry) Counter(name, help string, v uint64) {
	r.publish(metric{name: name, help: help, kind: "counter", count: v})
}

// Gauge publishes a gauge row. Publishing a name twice panics.
func (r *Registry) Gauge(name, help string, v float64) {
	r.publish(metric{name: name, help: help, kind: "gauge", value: v})
}

func (r *Registry) publish(m metric) {
	if r == nil {
		return
	}
	if r.find(m.name) != nil {
		panic("obs: metric " + m.name + " published twice")
	}
	r.rows = append(r.rows, m)
}

// find returns the row published under name, or nil.
func (r *Registry) find(name string) *metric {
	if r == nil {
		return nil
	}
	for i := range r.rows {
		if r.rows[i].name == name {
			return &r.rows[i]
		}
	}
	return nil
}

// CounterValue reports a counter's count, or 0 when no counter of that
// name was published.
func (r *Registry) CounterValue(name string) uint64 {
	if m := r.find(name); m != nil && m.kind == "counter" {
		return m.count
	}
	return 0
}

// GaugeValue reports a gauge's value, or 0 when no gauge of that name
// was published.
func (r *Registry) GaugeValue(name string) float64 {
	if m := r.find(name); m != nil && m.kind == "gauge" {
		return m.value
	}
	return 0
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus dumps every row in the Prometheus text exposition
// format, sorted by name so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	rows := slices.Clone(r.rows)
	slices.SortFunc(rows, func(a, b metric) int { return strings.Compare(a.name, b.name) })
	var b strings.Builder
	for _, m := range rows {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		v := strconv.FormatUint(m.count, 10)
		if m.kind == "gauge" {
			v = formatFloat(m.value)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n%s %s\n", m.name, m.kind, m.name, v)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
