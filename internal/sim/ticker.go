package sim

// Ticker repeatedly invokes a callback at a fixed simulated period until
// stopped. It is the building block for periodic behaviours such as the
// DHCPv6 exploit script, churn epochs, and daemon polling loops.
type Ticker struct {
	sched   *Scheduler
	period  Time
	fn      func()
	pending EventID
	running bool

	// Source labels the ticker's events for the kernel's per-source
	// event counts. Optional; set before Start.
	Source Source
}

// NewTicker creates a ticker bound to sched that fires fn every period.
// The ticker starts stopped; call Start.
//
// fn is subject to the same lifetime contract as Scheduler.Schedule
// callbacks — and more so, since it fires repeatedly: it must not
// capture borrowed pooled values (see stalecapture in internal/lint).
func NewTicker(sched *Scheduler, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	if fn == nil {
		panic("sim: ticker with nil fn")
	}
	return &Ticker{sched: sched, period: period, fn: fn}
}

// Start schedules the first tick one period from now. Starting a running
// ticker is a no-op.
func (t *Ticker) Start() {
	if t.running {
		return
	}
	t.running = true
	t.arm()
}

// StartImmediate fires the first tick at the current instant instead of
// one period from now.
func (t *Ticker) StartImmediate() {
	if t.running {
		return
	}
	t.running = true
	t.pending = t.sched.ScheduleSrc(0, t.Source, t.tick)
}

// Stop cancels any pending tick. The ticker may be restarted.
func (t *Ticker) Stop() {
	if !t.running {
		return
	}
	t.running = false
	t.sched.Cancel(t.pending)
}

// Running reports whether the ticker is armed.
func (t *Ticker) Running() bool { return t.running }

func (t *Ticker) arm() {
	t.pending = t.sched.ScheduleSrc(t.period, t.Source, t.tick)
}

func (t *Ticker) tick() {
	if !t.running {
		return
	}
	t.fn()
	if t.running { // fn may have stopped us
		t.arm()
	}
}
