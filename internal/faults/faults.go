// Package faults is DDoSim's deterministic fault-injection subsystem.
// It composes scenario schedules on top of the netsim/container
// primitives the substrate already has — link up/down (SetUp),
// receive-loss (SetLossRate), rate/queue shaping (SetRate,
// SetQueueLimit), process kill/respawn — without owning any mechanism
// of its own:
//
//   - link flaps: per-device outages, periodic (phase-staggered) or
//     random (exponential inter-arrival), restored after a fixed down
//     time;
//   - loss bursts: a Gilbert-Elliott-style two-state chain per device
//     alternating a good state (loss 0) with exponentially-distributed
//     bad states at a configured loss rate — up to 1.0, a fully dead
//     receive path;
//   - degradation windows: the link rate is scaled down (and the
//     drop-tail queue optionally shortened) for a window, modeling
//     congested or duty-cycled radios — latency rises through
//     serialization delay and queue buildup, never by editing the
//     propagation delay (mid-run delay changes would break the
//     device's FIFO in-flight matching);
//   - process crashes: a random live process in a target container is
//     killed; a supervisor hook restarts the container's service
//     daemon after a delay (a killed bot stays dead — re-infection is
//     the botnet's problem, which is exactly what the resilience
//     experiment measures);
//   - C&C outages: the attacker's uplink goes down for a window,
//     severing every bot connection and the loader's sessions at once;
//   - sink outages: TServer's measurement application stops logging
//     for a window.
//
// Determinism contract: every fault instant is drawn from the
// injector's own rand.Rand (seeded from the run seed xor a fixed
// constant, the same dedicated-stream pattern core uses for fleet
// parameters) and scheduled on the sim.Scheduler. Equal seeds therefore
// give byte-identical fault schedules, and a zero Config injects
// nothing and registers nothing — artifacts of fault-free runs are
// untouched byte for byte.
package faults

import (
	"fmt"
	"math/rand"

	"ddosim/internal/netsim"
	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// srcFaults labels fault injections and recoveries.
var srcFaults = sim.NewSource("faults")

// Flap scheduling modes.
const (
	FlapRandom   = "random"   // exponential inter-arrival (default)
	FlapPeriodic = "periodic" // fixed period, phase-staggered across links
)

// seedMix separates the injector's RNG stream from the scheduler's and
// core's fleet stream; fault draws must not perturb either.
const seedMix = 0xfa017

// Config declares a fault scenario. The zero value injects nothing.
// Every *Period is the mean (or exact, for periodic flaps) interval
// between fault arrivals per target; a zero period disables that fault
// class. Durations left zero take the documented defaults.
type Config struct {
	// Link flaps (per Dev link).
	FlapPeriod sim.Time // 0 disables
	FlapDown   sim.Time // outage length; default 5 s
	FlapMode   string   // FlapRandom (default) or FlapPeriodic

	// Gilbert-Elliott loss bursts (per Dev link).
	BurstLoss float64  // loss rate inside a burst, (0,1]; 0 disables
	BurstMean sim.Time // mean bad-state duration; default 5 s
	BurstGap  sim.Time // mean good-state duration; default 45 s

	// Degradation windows (per Dev link).
	DegradePeriod      sim.Time // 0 disables
	DegradeDown        sim.Time // window length; default 10 s
	DegradeFactor      float64  // rate multiplier in-window; default 0.25
	DegradeQueueFactor float64  // queue-limit multiplier in-window; default 1 (unchanged)

	// Process crashes (per Dev container).
	CrashPeriod  sim.Time // 0 disables
	RestartDelay sim.Time // supervisor respawn delay; default 5 s

	// C&C: process crashes (kill + re-exec after RestartDelay) and
	// link outage windows.
	CNCCrashPeriod  sim.Time // 0 disables
	CNCOutagePeriod sim.Time // 0 disables
	CNCOutageDown   sim.Time // outage length; default 10 s
	// CNCTakedownAfterOrder is the permanent-takedown scenario: this
	// long after core reports the attack order went out (the injector's
	// OnAttackOrder hook), the C&C daemon is killed and the attacker's
	// uplink severed — with no restart and no restore for the rest of
	// the run. The one-shot fault the takedown-resilience contrast
	// between the centralized and P2P families is measured under.
	CNCTakedownAfterOrder sim.Time // 0 disables

	// TServer sink outage windows (measurement loss).
	SinkOutagePeriod sim.Time // 0 disables
	SinkOutageDown   sim.Time // outage length; default 10 s
}

// Enabled reports whether the scenario injects anything at all.
func (c Config) Enabled() bool {
	return c.FlapPeriod > 0 || c.BurstLoss > 0 || c.DegradePeriod > 0 ||
		c.CrashPeriod > 0 || c.CNCCrashPeriod > 0 || c.CNCOutagePeriod > 0 ||
		c.CNCTakedownAfterOrder > 0 || c.SinkOutagePeriod > 0
}

// Validate checks the scenario for contradictions.
func (c Config) Validate() error {
	switch {
	case c.BurstLoss < 0 || c.BurstLoss > 1:
		return fmt.Errorf("faults: BurstLoss %v outside [0,1]", c.BurstLoss)
	case c.DegradeFactor < 0 || c.DegradeFactor > 1:
		return fmt.Errorf("faults: DegradeFactor %v outside [0,1]", c.DegradeFactor)
	case c.DegradeQueueFactor < 0 || c.DegradeQueueFactor > 1:
		return fmt.Errorf("faults: DegradeQueueFactor %v outside [0,1]", c.DegradeQueueFactor)
	case c.FlapMode != "" && c.FlapMode != FlapRandom && c.FlapMode != FlapPeriodic:
		return fmt.Errorf("faults: unknown FlapMode %q", c.FlapMode)
	case c.FlapPeriod < 0 || c.FlapDown < 0 || c.BurstMean < 0 || c.BurstGap < 0 ||
		c.DegradePeriod < 0 || c.DegradeDown < 0 || c.CrashPeriod < 0 ||
		c.RestartDelay < 0 || c.CNCCrashPeriod < 0 || c.CNCOutagePeriod < 0 ||
		c.CNCOutageDown < 0 || c.CNCTakedownAfterOrder < 0 ||
		c.SinkOutagePeriod < 0 || c.SinkOutageDown < 0:
		return fmt.Errorf("faults: negative duration in config")
	case c.DegradePeriod > 0 && c.DegradeFactor == 0 && c.DegradeQueueFactor == 0:
		return fmt.Errorf("faults: degradation enabled with zero factors")
	}
	return nil
}

// normalized fills defaulted durations.
func (c Config) normalized() Config {
	def := func(t *sim.Time, d sim.Time) {
		if *t <= 0 {
			*t = d
		}
	}
	def(&c.FlapDown, 5*sim.Second)
	def(&c.BurstMean, 5*sim.Second)
	def(&c.BurstGap, 45*sim.Second)
	def(&c.DegradeDown, 10*sim.Second)
	def(&c.RestartDelay, 5*sim.Second)
	def(&c.CNCOutageDown, 10*sim.Second)
	def(&c.SinkOutageDown, 10*sim.Second)
	if c.FlapMode == "" {
		c.FlapMode = FlapRandom
	}
	if c.DegradeFactor == 0 {
		c.DegradeFactor = 0.25
	}
	if c.DegradeQueueFactor == 0 {
		c.DegradeQueueFactor = 1
	}
	return c
}

// Timeline event kinds emitted through Injector.OnEvent.
const (
	EventLinkDown    = "fault-link-down"
	EventLinkUp      = "fault-link-up"
	EventBurstStart  = "fault-loss-burst"
	EventBurstEnd    = "fault-loss-end"
	EventDegradeOn   = "fault-degrade-on"
	EventDegradeOff  = "fault-degrade-off"
	EventProcCrash   = "fault-proc-crash"
	EventProcRestart = "fault-proc-restart"
	EventCNCDown     = "fault-cnc-down"
	EventCNCUp       = "fault-cnc-up"
	EventCNCTakedown = "fault-cnc-takedown"
	EventSinkDown    = "fault-sink-down"
	EventSinkUp      = "fault-sink-up"
)

// CatFault is the trace category for injection spans and events.
const CatFault = "fault"

// Stats counts injected faults; it lands in the run report when the
// injector is active.
type Stats struct {
	LinkFlaps      uint64 `json:"link_flaps"`
	LossBursts     uint64 `json:"loss_bursts"`
	DegradeWindows uint64 `json:"degrade_windows"`
	ProcCrashes    uint64 `json:"proc_crashes"`
	ProcRestarts   uint64 `json:"proc_restarts"`
	CNCCrashes     uint64 `json:"cnc_crashes"`
	CNCOutages     uint64 `json:"cnc_outages"`
	CNCTakedowns   uint64 `json:"cnc_takedowns"`
	SinkOutages    uint64 `json:"sink_outages"`
}

// Total sums every injection.
func (s Stats) Total() uint64 {
	return s.LinkFlaps + s.LossBursts + s.DegradeWindows + s.ProcCrashes +
		s.CNCCrashes + s.CNCOutages + s.CNCTakedowns + s.SinkOutages
}

// ProcTarget is a container whose processes the injector may crash.
// Crash kills one live process and reports a label for the timeline
// (empty, false when nothing was killable); Restart is the supervisor
// hook invoked RestartDelay later with that label, and reports whether
// anything was actually respawned (killed bots stay dead, so a bot
// crash yields no restart event).
type ProcTarget struct {
	Name    string
	Crash   func(rng *rand.Rand) (what string, ok bool)
	Restart func(what string) bool
}

// linkTarget is one fault-injectable link endpoint.
type linkTarget struct {
	name string
	dev  *netsim.NetDevice

	flapped   bool // link is down because of us
	bursting  bool
	degraded  bool
	origRate  netsim.DataRate
	origQueue int
}

// Injector drives one run's fault scenario. Build it with New, add
// targets, then Start it once the scheduler is about to run.
type Injector struct {
	sched *sim.Scheduler
	cfg   Config
	rng   *rand.Rand

	// OnEvent, when set, receives every injection for the run timeline.
	OnEvent func(kind, actor string)

	links   []*linkTarget
	procs   []ProcTarget
	cncLink *linkTarget
	cncProc *ProcTarget
	sink    func(down bool)

	trace         *obs.Tracer
	ctr           map[string]*obs.Counter
	stats         Stats
	stopped       bool
	takedownArmed bool
}

// New builds an injector for the scenario. seed is the run seed; the
// injector derives its own stream so fault draws never perturb the
// scheduler RNG. o may be nil.
func New(sched *sim.Scheduler, cfg Config, seed int64, o *obs.Obs) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		sched: sched,
		cfg:   cfg.normalized(),
		rng:   rand.New(rand.NewSource(seed ^ seedMix)),
		trace: o.Tracer(),
		ctr:   make(map[string]*obs.Counter),
	}
	if reg := o.Registry(); reg != nil && cfg.Enabled() {
		// Counters are registered only for an active scenario so a
		// fault-free run's metrics dump stays byte-identical.
		inj.ctr["flap"] = reg.Counter("faults_link_flaps_total", "link flaps injected")
		inj.ctr["burst"] = reg.Counter("faults_loss_bursts_total", "loss bursts injected")
		inj.ctr["degrade"] = reg.Counter("faults_degrade_windows_total", "degradation windows injected")
		inj.ctr["crash"] = reg.Counter("faults_proc_crashes_total", "processes crashed")
		inj.ctr["restart"] = reg.Counter("faults_proc_restarts_total", "supervisor restarts performed")
		inj.ctr["cnc"] = reg.Counter("faults_cnc_outages_total", "C&C outage windows injected")
		inj.ctr["takedown"] = reg.Counter("faults_cnc_takedowns_total", "permanent C&C takedowns injected")
		inj.ctr["sink"] = reg.Counter("faults_sink_outages_total", "sink outage windows injected")
	}
	return inj, nil
}

// AddLink registers a Dev link endpoint for flaps, bursts, and
// degradation windows.
func (inj *Injector) AddLink(name string, dev *netsim.NetDevice) {
	inj.links = append(inj.links, &linkTarget{name: name, dev: dev})
}

// AddProcTarget registers a container for process crashes.
func (inj *Injector) AddProcTarget(t ProcTarget) { inj.procs = append(inj.procs, t) }

// SetCNC registers the attacker's link endpoint (outage windows) and
// C&C process hooks (crash/re-exec).
func (inj *Injector) SetCNC(name string, dev *netsim.NetDevice, proc ProcTarget) {
	inj.cncLink = &linkTarget{name: name, dev: dev}
	inj.cncProc = &proc
}

// SetSink registers the sink outage hook; down(true) suspends
// measurement, down(false) resumes it.
func (inj *Injector) SetSink(down func(bool)) { inj.sink = down }

// Stats returns the injection counts so far.
func (inj *Injector) Stats() Stats { return inj.stats }

// Stop quiesces the injector: pending fault events become no-ops and
// in-progress windows are not restored (the run is over).
func (inj *Injector) Stop() { inj.stopped = true }

// Start schedules the scenario. Call exactly once.
func (inj *Injector) Start() {
	c := inj.cfg
	for i, lt := range inj.links {
		if c.FlapPeriod > 0 {
			first := inj.exp(c.FlapPeriod)
			if c.FlapMode == FlapPeriodic {
				// Stagger phases so the whole fleet doesn't flap in
				// lock-step.
				first = c.FlapPeriod * sim.Time(i+1) / sim.Time(len(inj.links)+1)
			}
			inj.after(first, func() { inj.flap(lt) })
		}
		if c.BurstLoss > 0 {
			inj.after(inj.exp(c.BurstGap), func() { inj.burst(lt) })
		}
		if c.DegradePeriod > 0 {
			inj.after(inj.exp(c.DegradePeriod), func() { inj.degrade(lt) })
		}
	}
	if c.CrashPeriod > 0 {
		for i := range inj.procs {
			t := &inj.procs[i]
			inj.after(inj.exp(c.CrashPeriod), func() { inj.crash(t, c.CrashPeriod, "crash") })
		}
	}
	if c.CNCCrashPeriod > 0 && inj.cncProc != nil {
		inj.after(inj.exp(c.CNCCrashPeriod), func() { inj.crash(inj.cncProc, c.CNCCrashPeriod, "crash") })
	}
	if c.CNCOutagePeriod > 0 && inj.cncLink != nil {
		inj.after(inj.exp(c.CNCOutagePeriod), inj.cncOutage)
	}
	if c.SinkOutagePeriod > 0 && inj.sink != nil {
		inj.after(inj.exp(c.SinkOutagePeriod), inj.sinkOutage)
	}
}

// exp draws an exponential interval with the given mean, floored at
// 1 ms so a pathological draw can't busy-loop the scheduler.
func (inj *Injector) exp(mean sim.Time) sim.Time {
	d := sim.Time(inj.rng.ExpFloat64() * float64(mean))
	if d < sim.Millisecond {
		d = sim.Millisecond
	}
	return d
}

// after schedules fn under the injector's stop guard.
func (inj *Injector) after(d sim.Time, fn func()) {
	inj.sched.ScheduleSrc(d, srcFaults, func() {
		if inj.stopped {
			return
		}
		fn()
	})
}

func (inj *Injector) emit(kind, actor string, ctr string) {
	if c := inj.ctr[ctr]; c != nil {
		c.Inc()
	}
	inj.trace.Event(inj.sched.Now(), CatFault, kind, obs.KV{K: "target", V: actor})
	if inj.OnEvent != nil {
		inj.OnEvent(kind, actor)
	}
}

// nextFlap reschedules the flap process for a link.
func (inj *Injector) nextFlap(lt *linkTarget) {
	d := inj.cfg.FlapPeriod
	if inj.cfg.FlapMode != FlapPeriodic {
		d = inj.exp(inj.cfg.FlapPeriod)
	}
	inj.after(d, func() { inj.flap(lt) })
}

// flap takes a link down for FlapDown. A link already down (churn, or
// an overlapping fault) is skipped — the flap process only reschedules.
func (inj *Injector) flap(lt *linkTarget) {
	defer inj.nextFlap(lt)
	if lt.flapped || !lt.dev.IsUp() {
		return
	}
	lt.flapped = true
	lt.dev.SetUp(false)
	inj.stats.LinkFlaps++
	span := inj.trace.BeginSpan(inj.sched.Now(), CatFault, "link-flap", obs.KV{K: "target", V: lt.name})
	inj.emit(EventLinkDown, lt.name, "flap")
	inj.after(inj.cfg.FlapDown, func() {
		lt.flapped = false
		inj.trace.EndSpan(span, inj.sched.Now())
		// Restore only if nothing else (churn) brought the link up in
		// the meantime.
		if !lt.dev.IsUp() {
			lt.dev.SetUp(true)
			inj.emit(EventLinkUp, lt.name, "")
		}
	})
}

// burst runs the Gilbert-Elliott bad state: loss jumps to BurstLoss
// for an exponential burst, then the chain re-enters the good state.
func (inj *Injector) burst(lt *linkTarget) {
	if lt.bursting {
		return
	}
	lt.bursting = true
	lt.dev.SetLossRate(inj.cfg.BurstLoss)
	inj.stats.LossBursts++
	span := inj.trace.BeginSpan(inj.sched.Now(), CatFault, "loss-burst",
		obs.KV{K: "target", V: lt.name}, obs.KV{K: "loss", V: fmt.Sprintf("%.3f", inj.cfg.BurstLoss)})
	inj.emit(EventBurstStart, lt.name, "burst")
	inj.after(inj.exp(inj.cfg.BurstMean), func() {
		lt.bursting = false
		lt.dev.SetLossRate(0)
		inj.trace.EndSpan(span, inj.sched.Now())
		inj.emit(EventBurstEnd, lt.name, "")
		inj.after(inj.exp(inj.cfg.BurstGap), func() { inj.burst(lt) })
	})
}

// degrade scales a link's rate (and optionally queue) down for a
// window, then restores the originals and reschedules.
func (inj *Injector) degrade(lt *linkTarget) {
	reschedule := func() {
		inj.after(inj.exp(inj.cfg.DegradePeriod), func() { inj.degrade(lt) })
	}
	if lt.degraded {
		reschedule()
		return
	}
	lt.degraded = true
	lt.origRate = lt.dev.Rate()
	lt.origQueue = lt.dev.QueueLimit()
	newRate := netsim.DataRate(float64(lt.origRate) * inj.cfg.DegradeFactor)
	if newRate < netsim.DataRate(1) {
		newRate = 1
	}
	lt.dev.SetRate(newRate)
	if inj.cfg.DegradeQueueFactor < 1 {
		q := int(float64(lt.origQueue) * inj.cfg.DegradeQueueFactor)
		if q < 1 {
			q = 1
		}
		lt.dev.SetQueueLimit(q)
	}
	inj.stats.DegradeWindows++
	span := inj.trace.BeginSpan(inj.sched.Now(), CatFault, "degrade",
		obs.KV{K: "target", V: lt.name}, obs.KV{K: "factor", V: fmt.Sprintf("%.2f", inj.cfg.DegradeFactor)})
	inj.emit(EventDegradeOn, lt.name, "degrade")
	inj.after(inj.cfg.DegradeDown, func() {
		lt.degraded = false
		lt.dev.SetRate(lt.origRate)
		lt.dev.SetQueueLimit(lt.origQueue)
		inj.trace.EndSpan(span, inj.sched.Now())
		inj.emit(EventDegradeOff, lt.name, "")
		reschedule()
	})
}

// crash kills one process in the target and schedules the supervisor
// restart; the crash process then reschedules itself.
func (inj *Injector) crash(t *ProcTarget, period sim.Time, ctr string) {
	defer inj.after(inj.exp(period), func() { inj.crash(t, period, ctr) })
	what, ok := t.Crash(inj.rng)
	if !ok {
		return
	}
	if t == inj.cncProc {
		inj.stats.CNCCrashes++
	} else {
		inj.stats.ProcCrashes++
	}
	inj.emit(EventProcCrash, t.Name+"/"+what, ctr)
	if t.Restart == nil {
		return
	}
	inj.after(inj.cfg.RestartDelay, func() {
		if !t.Restart(what) {
			return
		}
		inj.stats.ProcRestarts++
		inj.emit(EventProcRestart, t.Name+"/"+what, "restart")
	})
}

// cncOutage takes the attacker's uplink down for CNCOutageDown.
func (inj *Injector) cncOutage() {
	defer inj.after(inj.exp(inj.cfg.CNCOutagePeriod), inj.cncOutage)
	lt := inj.cncLink
	if lt.flapped || !lt.dev.IsUp() {
		return
	}
	lt.flapped = true
	lt.dev.SetUp(false)
	inj.stats.CNCOutages++
	span := inj.trace.BeginSpan(inj.sched.Now(), CatFault, "cnc-outage", obs.KV{K: "target", V: lt.name})
	inj.emit(EventCNCDown, lt.name, "cnc")
	inj.after(inj.cfg.CNCOutageDown, func() {
		lt.flapped = false
		inj.trace.EndSpan(span, inj.sched.Now())
		if !lt.dev.IsUp() {
			lt.dev.SetUp(true)
			inj.emit(EventCNCUp, lt.name, "")
		}
	})
}

// OnAttackOrder arms the order-relative scenarios; core calls it at
// the instant the attack command goes out. With CNCTakedownAfterOrder
// set it schedules the one-shot permanent takedown. Idempotent: a
// re-issued command (mirai command waves) does not re-arm it.
func (inj *Injector) OnAttackOrder() {
	if inj.cfg.CNCTakedownAfterOrder <= 0 || inj.takedownArmed {
		return
	}
	inj.takedownArmed = true
	inj.after(inj.cfg.CNCTakedownAfterOrder, inj.takedown)
}

// takedown is the permanent C&C kill: the daemon dies, the uplink goes
// down, and — unlike crash/outage — nothing restarts or restores them.
// Marking the link flapped for good keeps the periodic flap and outage
// processes from ever bringing it back.
func (inj *Injector) takedown() {
	if inj.cncProc != nil {
		inj.cncProc.Crash(inj.rng)
	}
	if lt := inj.cncLink; lt != nil {
		lt.flapped = true
		if lt.dev.IsUp() {
			lt.dev.SetUp(false)
		}
	}
	inj.stats.CNCTakedowns++
	inj.emit(EventCNCTakedown, "attacker", "takedown")
}

// sinkOutage suspends the measurement sink for SinkOutageDown.
func (inj *Injector) sinkOutage() {
	defer inj.after(inj.exp(inj.cfg.SinkOutagePeriod), inj.sinkOutage)
	inj.sink(true)
	inj.stats.SinkOutages++
	span := inj.trace.BeginSpan(inj.sched.Now(), CatFault, "sink-outage", obs.KV{K: "target", V: "tserver"})
	inj.emit(EventSinkDown, "tserver", "sink")
	inj.after(inj.cfg.SinkOutageDown, func() {
		inj.sink(false)
		inj.trace.EndSpan(span, inj.sched.Now())
		inj.emit(EventSinkUp, "tserver", "")
	})
}
