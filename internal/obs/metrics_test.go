package obs

import (
	"bytes"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames_total", "frames sent")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("frames_total", "ignored") != c {
		t.Error("get-or-create returned a different counter")
	}
	if got := r.CounterValue("frames_total"); got != 5 {
		t.Errorf("CounterValue = %d, want 5", got)
	}
	if got := r.CounterValue("missing"); got != 0 {
		t.Errorf("missing CounterValue = %d, want 0", got)
	}

	g := r.Gauge("queue_depth", "live queue depth")
	g.Set(7)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %v, want 5", got)
	}
	if got := r.GaugeValue("queue_depth"); got != 5 {
		t.Errorf("GaugeValue = %v, want 5", got)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Register in one order, bump in another; the dump sorts.
		r.Counter("zeta_total", "last alphabetically").Add(3)
		r.Gauge("alpha_depth", "first alphabetically").Set(1.5)
		r.Counter("mid_total", "").Inc()
		return r
	}
	var a, b bytes.Buffer
	if err := build().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical registries dumped different bytes")
	}
	want := "# HELP alpha_depth first alphabetically\n" +
		"# TYPE alpha_depth gauge\n" +
		"alpha_depth 1.5\n" +
		"# TYPE mid_total counter\n" +
		"mid_total 1\n" +
		"# HELP zeta_total last alphabetically\n" +
		"# TYPE zeta_total counter\n" +
		"zeta_total 3\n"
	if a.String() != want {
		t.Errorf("dump:\n%s\nwant:\n%s", a.String(), want)
	}
}

func TestNilRegistryAndMetrics(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("y", "")
	g.Set(4)
	if g.Value() != 0 {
		t.Error("nil gauge accumulated")
	}
	if r.CounterValue("x") != 0 || r.GaugeValue("y") != 0 {
		t.Error("nil registry reported values")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry dumped %q", buf.String())
	}
}
