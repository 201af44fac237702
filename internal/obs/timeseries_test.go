package obs

import (
	"strings"
	"testing"

	"ddosim/internal/sim"
)

func TestWindowsSampleAndCSV(t *testing.T) {
	w := NewWindows(sim.Second)
	infected := 0.0
	sent := 0.0
	w.Column("infected", func() float64 { return infected })
	w.DeltaColumn("tx_bytes", func() float64 { return sent })

	infected, sent = 2, 1000
	w.Sample(1 * sim.Second)
	infected, sent = 5, 1800
	w.Sample(2 * sim.Second)

	if len(w.rows) != 2 {
		t.Fatalf("rows=%d", len(w.rows))
	}
	var sb strings.Builder
	if err := w.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "window_start_s,infected,tx_bytes\n0,2,1000\n1,5,800\n"
	if sb.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWindowsSampleIdempotentAtSameInstant(t *testing.T) {
	w := NewWindows(sim.Second)
	calls := 0
	w.Column("c", func() float64 { calls++; return float64(calls) })
	w.Sample(1 * sim.Second)
	w.Sample(1 * sim.Second) // tail flush colliding with ticker fire
	w.Sample(500 * sim.Millisecond)
	if len(w.rows) != 1 || calls != 1 {
		t.Fatalf("rows=%d calls=%d, want 1/1", len(w.rows), calls)
	}
}

func TestWindowsReadsOncePerSampleInOrder(t *testing.T) {
	w := NewWindows(sim.Second)
	var order []string
	w.Column("a", func() float64 { order = append(order, "a"); return 0 })
	w.Column("b", func() float64 { order = append(order, "b"); return 0 })
	w.Sample(1 * sim.Second)
	w.Sample(2 * sim.Second)
	if got := strings.Join(order, ""); got != "abab" {
		t.Fatalf("read order %q", got)
	}
}

func TestNewWindowsPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindows(0)
}
