package obs

import (
	"bytes"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total", "frames sent", 5)
	r.Gauge("queue_depth", "queue depth", 7.5)
	if got := r.CounterValue("frames_total"); got != 5 {
		t.Errorf("CounterValue = %d, want 5", got)
	}
	if got := r.GaugeValue("queue_depth"); got != 7.5 {
		t.Errorf("GaugeValue = %v, want 7.5", got)
	}
	// A row reads back only as the kind it was published as.
	if r.CounterValue("missing") != 0 || r.CounterValue("queue_depth") != 0 || r.GaugeValue("frames_total") != 0 {
		t.Error("a missing or other-kind row read nonzero")
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Publish out of name order; the dump sorts.
		r.Counter("zeta_total", "last alphabetically", 3)
		r.Gauge("alpha_depth", "first alphabetically", 1.5)
		r.Counter("mid_total", "", 1)
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

// TestPublishingANameTwicePanics pins that a name reaches the dump at
// most once: publishing it again, as either kind, panics.
func TestPublishingANameTwicePanics(t *testing.T) {
	for _, again := range []struct {
		kind    string
		publish func(*Registry)
	}{
		{"counter", func(r *Registry) { r.Counter("dup", "again", 1) }},
		{"gauge", func(r *Registry) { r.Gauge("dup", "again", 1) }},
	} {
		t.Run(again.kind, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("dup", "first", 2)
			defer func() {
				if recover() == nil {
					t.Error("publishing dup twice did not panic")
				}
			}()
			again.publish(r)
		})
	}
}

// TestNilRegistryAndMetrics pins the nil-safe table: a nil registry
// publishes no row and reads every row as zero.
func TestNilRegistryAndMetrics(t *testing.T) {
	var r *Registry
	r.Counter("x", "", 3)
	r.Gauge("y", "", 4)
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
