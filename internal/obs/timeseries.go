package obs

import (
	"io"

	"ddosim/internal/sim"
)

// tsCol is one registered time-series column.
type tsCol struct {
	name  string
	read  func() float64
	delta bool
	prev  float64
}

// Windows aggregates readings into fixed-width windows of simulated
// time and renders them as a CSV or JSONL time-series artifact — the
// streaming replacement for post-hoc curve extraction. Columns are
// registered up front; Sample(now) then snapshots every column once
// per window, in registration order, which makes the artifact a pure
// function of the run (same seed → byte-identical bytes).
//
// The zero value is not usable; construct with NewWindows. Methods are
// nil-safe so instrumentation can stay unconditional.
type Windows struct {
	width sim.Time
	cols  []tsCol
	rows  [][]float64
	times []sim.Time // window start per row
	last  sim.Time   // end of the last sampled window
}

// NewWindows creates a window aggregator with the given window width.
func NewWindows(width sim.Time) *Windows {
	if width <= 0 {
		panic("obs: window width must be positive")
	}
	return &Windows{width: width}
}

// Width reports the configured window width.
func (w *Windows) Width() sim.Time {
	if w == nil {
		return 0
	}
	return w.width
}

// Column registers a gauge-style column: each window records the
// reading at window close. The read function is called exactly once
// per Sample, in registration order, so it may carry side effects
// (e.g. draining a per-window accumulator).
func (w *Windows) Column(name string, read func() float64) {
	if w == nil {
		return
	}
	w.cols = append(w.cols, tsCol{name: name, read: read})
}

// DeltaColumn registers a rate-style column over a monotone reading:
// each window records the increase since the previous window.
func (w *Windows) DeltaColumn(name string, read func() float64) {
	if w == nil {
		return
	}
	w.cols = append(w.cols, tsCol{name: name, read: read, delta: true})
}

// Sample closes the window ending at now: every column is read once,
// in registration order, and one row is appended with the window's
// start time. Calls at or before the previous sample time are ignored,
// so a final tail flush at run end is idempotent with the last ticker
// fire.
func (w *Windows) Sample(now sim.Time) {
	if w == nil || now <= w.last {
		return
	}
	row := make([]float64, len(w.cols))
	for i := range w.cols {
		c := &w.cols[i]
		v := c.read()
		if c.delta {
			row[i] = v - c.prev
			c.prev = v
		} else {
			row[i] = v
		}
	}
	w.rows = append(w.rows, row)
	w.times = append(w.times, w.last)
	w.last = now
}

// Rows reports the number of closed windows.
func (w *Windows) Rows() int {
	if w == nil {
		return 0
	}
	return len(w.rows)
}

// WriteCSV renders the time series as CSV with a window_start_s column
// followed by the registered columns. Numbers take the shortest form
// that round-trips.
func (w *Windows) WriteCSV(out io.Writer) error {
	e := newEnc(out)
	e.raw("window_start_s")
	if w == nil {
		e.raw("\n")
		return e.flush()
	}
	for _, c := range w.cols {
		e.raw(",")
		e.raw(c.name)
	}
	e.raw("\n")
	for i, row := range w.rows {
		e.float(w.times[i].Seconds())
		for _, v := range row {
			e.raw(",")
			e.float(v)
		}
		e.raw("\n")
		if err := e.endRecord(); err != nil {
			return err
		}
	}
	return e.flush()
}

// WriteJSONL renders the time series as JSON Lines, one window per
// line, with keys in registration order.
func (w *Windows) WriteJSONL(out io.Writer) error {
	if w == nil {
		return nil
	}
	e := newEnc(out)
	for i, row := range w.rows {
		e.raw(`{"t_s":`)
		e.float(w.times[i].Seconds())
		for j, v := range row {
			e.raw(",")
			e.quote(w.cols[j].name)
			e.raw(":")
			e.float(v)
		}
		e.raw("}\n")
		if err := e.endRecord(); err != nil {
			return err
		}
	}
	return e.flush()
}
