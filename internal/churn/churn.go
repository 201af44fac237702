// Package churn implements the IoT churn model of §IV-A, following
// Fan et al.: a device's leaving factor L(h) = (1-q(h))(1-e(h))
// combines link quality q and remaining energy e, and Eq. 1 maps it to
// a leaving probability l(h) with coefficients φ1, φ2, φ3. Two
// controller variants drive device membership: static churn (one
// departure draw at the outset, no rejoining) and dynamic churn
// (re-evaluation every epoch, with departures and rejoins).
package churn

import (
	"fmt"
	"math/rand"

	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// Sources labelling the churn controller's scheduler events.
var (
	srcEpoch   = sim.NewSource("churn.epoch")
	srcSession = sim.NewSource("churn.session")
)

// Mode selects the churn variant.
type Mode uint8

// Churn modes.
const (
	// None keeps every device online for the whole run.
	None Mode = iota + 1
	// Static draws departures once at the simulation outset; departed
	// devices never rejoin.
	Static
	// Dynamic re-estimates the leaving probability every epoch,
	// allowing intermittent departures and rejoins.
	Dynamic
	// Sessions is an alternative model from the P2P/IoT literature
	// (not in the paper, provided for comparison): each device
	// alternates independent exponentially-distributed online and
	// offline sessions.
	Sessions
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case None:
		return "no churn"
	case Static:
		return "static churn"
	case Dynamic:
		return "dynamic churn"
	case Sessions:
		return "session churn"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// ParseMode converts a CLI string into a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "none", "no", "":
		return None, nil
	case "static":
		return Static, nil
	case "dynamic":
		return Dynamic, nil
	case "sessions":
		return Sessions, nil
	default:
		return 0, fmt.Errorf("churn: unknown mode %q (none|static|dynamic|sessions)", s)
	}
}

// Coefficients are the φ values of Eq. 1.
type Coefficients struct {
	Phi1, Phi2, Phi3 float64
}

// FanCoefficients are the values Fan et al. (and the paper) use.
var FanCoefficients = Coefficients{Phi1: 0.16, Phi2: 0.08, Phi3: 0.04}

// DefaultEpoch is the dynamic-churn re-evaluation period of §IV-A.
const DefaultEpoch = 20 * sim.Second

// Default session-churn means: IoT devices stay up for minutes and
// drop for tens of seconds.
const (
	DefaultMeanOnline  = 300 * sim.Second
	DefaultMeanOffline = 60 * sim.Second
)

// Host is one device's churn state.
type Host struct {
	// Q is link quality in [0,1]; E is remaining energy in [0,1].
	// The paper assigns both uniformly at random per device.
	Q, E float64
}

// LeavingFactor computes L(h) = (1-q)(1-e).
func (h Host) LeavingFactor() float64 { return (1 - h.Q) * (1 - h.E) }

// LeavingProbability applies Eq. 1.
func (h Host) LeavingProbability(c Coefficients) float64 {
	l := h.LeavingFactor()
	switch {
	case l <= 0.4:
		return c.Phi1 * l
	case l <= 0.7:
		return c.Phi2 * l
	default:
		return c.Phi3 * l
	}
}

// RandomHost draws a device with uniform q and e.
func RandomHost(rng *rand.Rand) Host {
	return Host{Q: rng.Float64(), E: rng.Float64()}
}

// Device is the controller's view of one Dev: the controller flips it
// offline/online through this interface.
type Device interface {
	// Name identifies the device in timelines.
	Name() string
	// SetOnline connects or disconnects the device from the network.
	SetOnline(up bool)
	// Online reports current membership.
	Online() bool
}

// Controller drives churn for a fleet of devices.
type Controller struct {
	mode    Mode
	epoch   sim.Time
	coeff   Coefficients
	sched   *sim.Scheduler
	devices []Device
	hosts   []Host
	ticker  *sim.Ticker
	stopped bool

	meanOnline  sim.Time
	meanOffline sim.Time

	// OnChange observes each membership flip (for timelines).
	OnChange func(at sim.Time, dev Device, online bool)

	departures uint64
	rejoins    uint64

	// Observability (optional; see Observe).
	trace     *obs.Tracer
	ctrDepart *obs.Counter
	ctrRejoin *obs.Counter
	epochSpan obs.SpanID
	epochOpen bool
	epochN    int
}

// NewController builds a controller over the given devices, drawing
// each device's q and e from rng.
func NewController(sched *sim.Scheduler, mode Mode, devices []Device) *Controller {
	c := &Controller{
		mode:        mode,
		epoch:       DefaultEpoch,
		coeff:       FanCoefficients,
		sched:       sched,
		devices:     make([]Device, len(devices)),
		hosts:       make([]Host, len(devices)),
		meanOnline:  DefaultMeanOnline,
		meanOffline: DefaultMeanOffline,
	}
	copy(c.devices, devices)
	for i := range c.hosts {
		c.hosts[i] = RandomHost(sched.RNG())
	}
	return c
}

// SetEpoch overrides the dynamic re-evaluation period.
func (c *Controller) SetEpoch(epoch sim.Time) {
	if epoch <= 0 {
		panic("churn: non-positive epoch")
	}
	c.epoch = epoch
}

// SetCoefficients overrides the φ values.
func (c *Controller) SetCoefficients(coeff Coefficients) { c.coeff = coeff }

// SetSessionMeans overrides the session-churn mean online and offline
// durations.
func (c *Controller) SetSessionMeans(online, offline sim.Time) {
	if online <= 0 || offline <= 0 {
		panic("churn: non-positive session means")
	}
	c.meanOnline = online
	c.meanOffline = offline
}

// Hosts exposes the drawn per-device churn parameters.
func (c *Controller) Hosts() []Host {
	out := make([]Host, len(c.hosts))
	copy(out, c.hosts)
	return out
}

// Observe attaches the observability bundle: membership flips become
// device-up/device-down trace events and counters, and each dynamic
// re-evaluation period becomes a "churn-epoch" span.
func (c *Controller) Observe(o *obs.Obs) {
	c.trace = o.Tracer()
	if reg := o.Registry(); reg != nil {
		c.ctrDepart = reg.Counter("churn_departures_total", "devices flipped offline by churn")
		c.ctrRejoin = reg.Counter("churn_rejoins_total", "devices flipped back online by churn")
	}
}

// Departures reports how many offline flips occurred.
func (c *Controller) Departures() uint64 { return c.departures }

// Rejoins reports how many online flips occurred.
func (c *Controller) Rejoins() uint64 { return c.rejoins }

// Start begins churn according to the mode. For Static it applies the
// single departure draw immediately; for Dynamic it also starts the
// epoch ticker.
func (c *Controller) Start() {
	c.stopped = false
	switch c.mode {
	case None:
		return
	case Static:
		c.evaluate(false)
	case Dynamic:
		c.rollEpoch()
		c.evaluate(true)
		c.ticker = sim.NewTicker(c.sched, c.epoch, func() {
			c.rollEpoch()
			c.evaluate(true)
		})
		c.ticker.Source = srcEpoch
		c.ticker.Start()
	case Sessions:
		for _, dev := range c.devices {
			c.scheduleSessionEnd(dev)
		}
	}
}

// Stop halts re-evaluation (dynamic) or session alternation.
func (c *Controller) Stop() {
	c.stopped = true
	if c.ticker != nil {
		c.ticker.Stop()
	}
	if c.epochOpen {
		c.trace.EndSpan(c.epochSpan, c.sched.Now())
		c.epochOpen = false
	}
}

// rollEpoch closes the running churn-epoch span and opens the next.
func (c *Controller) rollEpoch() {
	now := c.sched.Now()
	if c.epochOpen {
		c.trace.EndSpan(c.epochSpan, now)
	}
	c.epochN++
	c.epochSpan = c.trace.BeginSpan(now, obs.CatChurn, "churn-epoch",
		obs.KV{K: "n", V: fmt.Sprint(c.epochN)})
	c.epochOpen = c.trace != nil
}

// scheduleSessionEnd arms the next flip for one device under the
// Sessions model.
func (c *Controller) scheduleSessionEnd(dev Device) {
	mean := c.meanOnline
	if !dev.Online() {
		mean = c.meanOffline
	}
	d := sim.Time(c.sched.RNG().ExpFloat64() * float64(mean))
	if d < sim.Millisecond {
		d = sim.Millisecond
	}
	c.sched.ScheduleSrc(d, srcSession, func() {
		if c.stopped {
			return
		}
		online := !dev.Online()
		dev.SetOnline(online)
		if online {
			c.rejoins++
		} else {
			c.departures++
		}
		c.notify(dev, online)
		c.scheduleSessionEnd(dev)
	})
}

// evaluate applies one churn round. With rejoin=false (static mode)
// only online->offline transitions happen. With rejoin=true, offline
// devices come back when the leaving draw does not fire — modeling
// devices that reconnect "upon condition improvement".
func (c *Controller) evaluate(rejoin bool) {
	rng := c.sched.RNG()
	for i, dev := range c.devices {
		p := c.hosts[i].LeavingProbability(c.coeff)
		leave := rng.Float64() < p
		switch {
		case leave && dev.Online():
			dev.SetOnline(false)
			c.departures++
			c.notify(dev, false)
		case !leave && !dev.Online() && rejoin:
			dev.SetOnline(true)
			c.rejoins++
			c.notify(dev, true)
		}
	}
}

func (c *Controller) notify(dev Device, online bool) {
	at := c.sched.Now()
	if online {
		c.ctrRejoin.Inc()
		c.trace.Event(at, obs.CatChurn, "device-up", obs.KV{K: "dev", V: dev.Name()})
	} else {
		c.ctrDepart.Inc()
		c.trace.Event(at, obs.CatChurn, "device-down", obs.KV{K: "dev", V: dev.Name()})
	}
	if c.OnChange != nil {
		c.OnChange(at, dev, online)
	}
}
