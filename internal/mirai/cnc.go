package mirai

import (
	"bytes"
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/obs"
	"ddosim/internal/sim"
)

// Sources labelling the C&C's connection sniff deadline and its reaper
// of silent bots.
var (
	srcSniff = sim.NewSource("cnc.sniff")
	srcReap  = sim.NewSource("cnc.reap")
)

// botTimeout drops bots whose keepalive pings stop arriving: three
// missed pings, as in the published source. The reaper runs every
// botTimeout/3.
const botTimeout = 3 * pingPeriod

// adminAccount is both the user name and the password of the telnet
// admin interface: the published source's bundled account.
const adminAccount = "root"

// CNCConfig parameterizes the command-and-control server.
type CNCConfig struct {
	// OnBotRegistered observes each successful bot registration — the
	// experiment harness counts recruitment (R2) through this.
	OnBotRegistered func(addr netip.Addr, arch string)
	// OnBotLost observes bot disconnections (churn makes these
	// frequent).
	OnBotLost func(addr netip.Addr)
	// ReplayAttackCommand, when set, re-sends the most recent attack
	// command — trimmed to its remaining duration — to any bot that
	// registers while the commanded window is still open, so a Dev
	// rejoining after an outage still participates. Off by default:
	// the published C&C never replays, which is what produces the
	// paper's Fig. 2 churn gap (pinned by a test).
	ReplayAttackCommand bool
	// Obs, when set, records registrations, losses, and attack
	// commands as trace events.
	Obs *obs.Obs
}

// BotRecord describes one connected bot.
type BotRecord struct {
	Addr        netip.Addr
	Arch        string
	ConnectedAt sim.Time
	LastSeen    sim.Time
}

// CNC is the C&C server process behaviour. It multiplexes Mirai bots
// and telnet admins on one port, keeps the bot registry, and
// broadcasts attack commands.
type CNC struct {
	cfg CNCConfig
	p   *container.Process

	bots map[*netsim.TCPConn]*BotRecord

	// Counters for tests and experiments.
	AttacksIssued   int
	AdminSessions   int
	TotalRegistered int
	CommandReplays  int

	lastCmd   AttackCommand
	lastCmdAt sim.Time
	haveCmd   bool

	trace *obs.Tracer
}

var _ container.Behavior = (*CNC)(nil)

// NewCNC creates the behaviour.
func NewCNC(cfg CNCConfig) *CNC {
	return &CNC{cfg: cfg, bots: make(map[*netsim.TCPConn]*BotRecord), trace: cfg.Obs.Tracer()}
}

// Name implements container.Behavior.
func (c *CNC) Name() string { return "cnc" }

// Start implements container.Behavior.
func (c *CNC) Start(p *container.Process) {
	c.p = p
	if _, err := p.ListenTCP(CNCPort, c.accept); err != nil {
		p.Logf("cnc: listen: %v", err)
	}
	reaper := p.NewTicker(botTimeout/3, srcReap, c.reapSilentBots)
	reaper.Start()
}

// sortedConns returns the registry's connections ordered by bot
// address (connect time as tiebreak). The bots map must never be
// ranged directly where side effects follow: map order would leak
// into event sequencing and shared-RNG draw order, breaking the
// same-seed reproducibility the trace layer promises.
func (c *CNC) sortedConns() []*netsim.TCPConn {
	conns := make([]*netsim.TCPConn, 0, len(c.bots))
	for conn := range c.bots { //simlint:allow maporder(collect-then-sort: conns are address-sorted before any side effect)
		conns = append(conns, conn)
	}
	sort.Slice(conns, func(i, j int) bool {
		a, b := c.bots[conns[i]], c.bots[conns[j]]
		if cmp := a.Addr.Compare(b.Addr); cmp != 0 {
			return cmp < 0
		}
		return a.ConnectedAt < b.ConnectedAt
	})
	return conns
}

// reapSilentBots drops bots whose pings stopped — the C&C-side
// detection of churned-out devices.
func (c *CNC) reapSilentBots() {
	now := c.p.Sched().Now()
	for _, conn := range c.sortedConns() {
		if now-c.bots[conn].LastSeen > botTimeout {
			conn.Abort() // close handler performs deregistration
		}
	}
}

// Stop implements container.Behavior.
func (c *CNC) Stop(*container.Process) {}

// BotCount reports the number of currently-connected bots.
func (c *CNC) BotCount() int { return len(c.bots) }

// Bots returns a snapshot of the registry, ordered by bot address.
func (c *CNC) Bots() []BotRecord {
	out := make([]BotRecord, 0, len(c.bots))
	for _, conn := range c.sortedConns() {
		out = append(out, *c.bots[conn])
	}
	return out
}

// LaunchAttack broadcasts an attack command to every connected bot and
// reports how many were ordered. This is the programmatic equivalent
// of typing the command into the telnet admin session.
func (c *CNC) LaunchAttack(cmd AttackCommand) int {
	c.lastCmd = cmd
	c.lastCmdAt = c.p.Sched().Now()
	c.haveCmd = true
	wire := []byte(cmd.Encode())
	n := 0
	for _, conn := range c.sortedConns() {
		if err := conn.Send(wire); err == nil {
			n++
		}
	}
	c.AttacksIssued++
	c.trace.Event(c.p.Sched().Now(), obs.CatCNC, "attack-command",
		obs.KV{K: "method", V: cmd.Method},
		obs.KV{K: "target", V: cmd.Target.String()},
		obs.KV{K: "bots", V: fmt.Sprint(n)})
	c.p.Logf("cnc: %s sent to %d bots", strings.TrimSpace(cmd.Encode()), n)
	return n
}

// sniffTimeout bounds how long accept waits for the bot magic before
// assuming a telnet admin — the read deadline the real C&C applies.
const sniffTimeout = 250 * sim.Millisecond

// accept sniffs the first bytes to route the connection: bot magic or
// telnet admin. Bots announce themselves immediately; a human telnet
// session sends nothing until prompted, so a short deadline decides.
func (c *CNC) accept(conn *netsim.TCPConn) {
	var head []byte
	decided := false
	decide := func() {
		if decided {
			return
		}
		decided = true
		if len(head) >= len(botMagic) && bytes.Equal(head[:len(botMagic)], botMagic) {
			c.serveBot(conn, head[len(botMagic):])
			return
		}
		c.serveAdmin(conn, head)
	}
	conn.SetDataHandler(func(data []byte) {
		if decided {
			return // handler replaced by decide(); defensive
		}
		head = append(head, data...)
		if len(head) >= len(botMagic) {
			decide()
		}
	})
	conn.SetCloseHandler(func(error) {})
	c.p.Sched().Schedule(sniffTimeout, srcSniff, decide)
}

// --- Bot side ---

func (c *CNC) serveBot(conn *netsim.TCPConn, rest []byte) {
	var lb lineBuffer
	registered := false
	handle := func(lines []string) {
		for _, line := range lines {
			switch {
			case strings.HasPrefix(line, "arch "):
				if registered {
					continue
				}
				registered = true
				rec := &BotRecord{
					Addr:        conn.RemoteAddr().Addr(),
					Arch:        strings.TrimPrefix(line, "arch "),
					ConnectedAt: c.p.Sched().Now(),
					LastSeen:    c.p.Sched().Now(),
				}
				c.bots[conn] = rec
				c.TotalRegistered++
				c.trace.Event(rec.ConnectedAt, obs.CatCNC, "bot-registered",
					obs.KV{K: "addr", V: rec.Addr.String()},
					obs.KV{K: "arch", V: rec.Arch})
				if c.cfg.OnBotRegistered != nil {
					c.cfg.OnBotRegistered(rec.Addr, rec.Arch)
				}
				c.maybeReplay(conn, rec)
			case line == "ping":
				if rec, ok := c.bots[conn]; ok {
					rec.LastSeen = c.p.Sched().Now()
				}
				_ = conn.Send([]byte("pong\n"))
			}
		}
	}
	conn.SetDataHandler(func(data []byte) { handle(lb.feed(data)) })
	conn.SetCloseHandler(func(error) {
		if rec, ok := c.bots[conn]; ok {
			delete(c.bots, conn)
			c.trace.Event(c.p.Sched().Now(), obs.CatCNC, "bot-lost",
				obs.KV{K: "addr", V: rec.Addr.String()})
			if c.cfg.OnBotLost != nil {
				c.cfg.OnBotLost(rec.Addr)
			}
		}
	})
	if len(rest) > 0 {
		handle(lb.feed(rest))
	}
}

// maybeReplay re-sends the last attack command to a freshly registered
// bot when replay is enabled and the commanded window is still open.
// The duration is trimmed so the rejoiner stops with everyone else.
func (c *CNC) maybeReplay(conn *netsim.TCPConn, rec *BotRecord) {
	if !c.cfg.ReplayAttackCommand || !c.haveCmd {
		return
	}
	now := c.p.Sched().Now()
	until := c.lastCmdAt + sim.Time(c.lastCmd.Duration)*sim.Second
	if now >= until {
		return
	}
	cmd := c.lastCmd
	cmd.Duration = int((until - now + sim.Second - 1) / sim.Second)
	if err := conn.Send([]byte(cmd.Encode())); err != nil {
		return
	}
	c.CommandReplays++
	c.trace.Event(now, obs.CatCNC, "attack-replay",
		obs.KV{K: "addr", V: rec.Addr.String()},
		obs.KV{K: "remaining_s", V: fmt.Sprint(cmd.Duration)})
}

// --- Telnet admin side ---

type adminState int

const (
	adminUser adminState = iota + 1
	adminPass
	adminShell
)

func (c *CNC) serveAdmin(conn *netsim.TCPConn, head []byte) {
	c.AdminSessions++
	var lb lineBuffer
	state := adminUser
	var user string
	_ = conn.Send([]byte("login: "))
	handle := func(lines []string) {
		for _, line := range lines {
			switch state {
			case adminUser:
				user = line
				state = adminPass
				_ = conn.Send([]byte("password: "))
			case adminPass:
				if user == adminAccount && line == adminAccount {
					state = adminShell
					_ = conn.Send([]byte("welcome to the mirai cnc\n> "))
				} else {
					_ = conn.Send([]byte("login failed\n"))
					conn.Close()
					return
				}
			case adminShell:
				c.adminCommand(conn, line)
			}
		}
	}
	conn.SetDataHandler(func(data []byte) { handle(lb.feed(data)) })
	if len(head) > 0 {
		handle(lb.feed(head))
	}
}

func (c *CNC) adminCommand(conn *netsim.TCPConn, line string) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		_ = conn.Send([]byte("> "))
		return
	}
	switch fields[0] {
	case "botcount":
		_ = conn.Send([]byte(fmt.Sprintf("%d bots connected.\n> ", len(c.bots))))
	case MethodUDPPlain, MethodSYN, MethodACK:
		cmd, err := ParseAttackCommand(line)
		if err != nil {
			_ = conn.Send([]byte(fmt.Sprintf("usage: %s <ip> <port> <secs>\n> ", fields[0])))
			return
		}
		n := c.LaunchAttack(cmd)
		_ = conn.Send([]byte(fmt.Sprintf("attack sent to %d bots\n> ", n)))
	case "exit", "quit":
		_ = conn.Send([]byte("bye\n"))
		conn.Close()
	default:
		_ = conn.Send([]byte("unknown command\n> "))
	}
}
