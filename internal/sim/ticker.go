package sim

// Ticker repeatedly invokes a callback at a fixed simulated period until
// stopped. It is the building block for periodic behaviours such as the
// DHCPv6 exploit script, churn epochs, and daemon polling loops.
type Ticker struct {
	sched   *Scheduler
	period  Time
	fn      func()
	src     Source
	pending EventID
	running bool
}

// NewTicker creates a ticker bound to sched that fires fn every period,
// attributing each tick to src. The ticker starts stopped; call Start.
//
// fn is subject to the same lifetime contract as Scheduler.Schedule
// callbacks — and more so, since it fires repeatedly: it must not
// capture borrowed pooled values (see stalecapture in internal/lint).
func NewTicker(sched *Scheduler, period Time, src Source, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	if fn == nil {
		panic("sim: ticker with nil fn")
	}
	return &Ticker{sched: sched, period: period, src: src, fn: fn}
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
	t.pending = t.sched.Schedule(0, t.src, t.tick)
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
	t.pending = t.sched.Schedule(t.period, t.src, t.tick)
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
