// Package telnetd simulates the BusyBox telnet daemon found on the
// IoT devices the original Mirai preyed on: a TCP listener on port 23
// guarded only by a username/password pair, giving a shell on
// success. It exists so DDoSim can reproduce the paper's *baseline*
// recruitment vector — dictionary attacks against default
// credentials — and contrast it with the memory-error vector the
// paper advocates studying (§I, R1).
package telnetd

import (
	"strings"

	"ddosim/internal/binaries/image"
	"ddosim/internal/container"
	"ddosim/internal/netsim"
)

// Cred is one username/password pair.
type Cred struct {
	User string
	Pass string
}

// MiraiDictionary is a subset of the credential list shipped in
// Mirai's scanner.c — the factory defaults that built the original
// botnet.
var MiraiDictionary = []Cred{
	{"root", "xc3511"},
	{"root", "vizxv"},
	{"root", "admin"},
	{"admin", "admin"},
	{"root", "888888"},
	{"root", "default"},
	{"root", "54321"},
	{"support", "support"},
	{"root", "root"},
	{"user", "user"},
	{"admin", "password"},
	{"root", "12345"},
}

// StrongCred is a credential outside every dictionary — what a vendor
// complying with the IoT security legislation the paper cites (§I)
// would ship.
var StrongCred = Cred{User: "admin", Pass: "T7#kV9!mQ2$xW5pL"}

// maxAttempts is how many login attempts one connection gets before
// the daemon drops it, as BusyBox telnetd does.
const maxAttempts = 3

// Config parameterizes the daemon.
type Config struct {
	// Cred is the device's login. Zero value means StrongCred.
	Cred Cred
}

// Daemon is the telnetd process behaviour.
type Daemon struct {
	cfg Config
	p   *container.Process

	// Counters for tests and experiments.
	LoginAttempts uint64
	Logins        uint64
}

var _ container.Behavior = (*Daemon)(nil)

// New creates the behaviour.
func New(cfg Config) *Daemon {
	if cfg.Cred == (Cred{}) {
		cfg.Cred = StrongCred
	}
	return &Daemon{cfg: cfg}
}

// Name implements container.Behavior.
func (d *Daemon) Name() string { return image.BinTelnetd }

// Start implements container.Behavior.
func (d *Daemon) Start(p *container.Process) {
	d.p = p
	if _, err := p.ListenTCP(23, d.accept); err != nil {
		p.Logf("telnetd: %v", err)
	}
}

// Stop implements container.Behavior.
func (d *Daemon) Stop(*container.Process) {}

type session struct {
	d        *Daemon
	conn     *netsim.TCPConn
	buf      []byte
	state    int // 0=user, 1=pass, 2=shell
	user     string
	attempts int
}

func (d *Daemon) accept(conn *netsim.TCPConn) {
	s := &session{d: d, conn: conn}
	_ = conn.Send([]byte("login: "))
	conn.SetDataHandler(s.onData)
}

func (s *session) onData(data []byte) {
	s.buf = append(s.buf, data...)
	for {
		idx := strings.IndexByte(string(s.buf), '\n')
		if idx < 0 {
			return
		}
		line := strings.TrimRight(string(s.buf[:idx]), "\r")
		s.buf = s.buf[idx+1:]
		s.onLine(line)
	}
}

func (s *session) onLine(line string) {
	switch s.state {
	case 0:
		s.user = line
		s.state = 1
		_ = s.conn.Send([]byte("Password: "))
	case 1:
		s.d.LoginAttempts++
		if s.user == s.d.cfg.Cred.User && line == s.d.cfg.Cred.Pass {
			s.state = 2
			s.d.Logins++
			_ = s.conn.Send([]byte("BusyBox v1.19.3 built-in shell (ash)\n$ "))
			return
		}
		s.attempts++
		if s.attempts >= maxAttempts {
			_ = s.conn.Send([]byte("Login incorrect\n"))
			s.conn.Close()
			return
		}
		s.state = 0
		_ = s.conn.Send([]byte("Login incorrect\nlogin: "))
	case 2:
		s.shellLine(line)
	}
}

// shellLine executes one shell command for an authenticated session —
// how Mirai's loader drives its infection one-liner.
func (s *session) shellLine(line string) {
	if line == "exit" || line == "logout" {
		_ = s.conn.Send([]byte("$ \n"))
		s.conn.Close()
		return
	}
	if strings.TrimSpace(line) == "" {
		_ = s.conn.Send([]byte("$ "))
		return
	}
	conn := s.conn
	s.d.p.Container().RunShell(line, func(err error) {
		if err != nil {
			_ = conn.Send([]byte("sh: " + err.Error() + "\n$ "))
			return
		}
		_ = conn.Send([]byte("$ "))
	})
}
