package netsim

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"

	"ddosim/internal/sim"
)

// tcpPair builds a star with two hosts and returns them plus the
// scheduler.
func tcpPair(t testing.TB) (*sim.Scheduler, *Node, *Node, *Star) {
	t.Helper()
	sched := sim.NewScheduler(11)
	w := New(sched)
	star := NewStar(w)
	a := star.AttachHost("client", 10*Mbps, sim.Millisecond, 0)
	b := star.AttachHost("server", 10*Mbps, sim.Millisecond, 0)
	return sched, a, b, star
}

func TestTCPHandshakeAndEcho(t *testing.T) {
	sched, client, server, _ := tcpPair(t)

	if _, err := server.ListenTCP(23, func(c *TCPConn) {
		c.SetDataHandler(func(data []byte) {
			if err := c.Send(append([]byte("echo:"), data...)); err != nil {
				t.Errorf("server send: %v", err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	established := false
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		established = true
		c.SetDataHandler(func(data []byte) { got.Write(data) })
		if err := c.Send([]byte("hello")); err != nil {
			t.Errorf("client send: %v", err)
		}
	})
	if err := sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !established {
		t.Fatal("connection not established")
	}
	if got.String() != "echo:hello" {
		t.Fatalf("echoed %q", got.String())
	}
}

func TestTCPServerSendsFirstFromAcceptCallback(t *testing.T) {
	// Regression: data queued inside the accept callback runs while
	// the final handshake ACK is still being processed; the SYN's
	// sequence slot must not be charged against the first payload
	// byte (this once ate the 'l' of a "login: " banner).
	sched, client, server, _ := tcpPair(t)
	if _, err := server.ListenTCP(23, func(c *TCPConn) {
		if err := c.Send([]byte("login: ")); err != nil {
			t.Errorf("banner send: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.SetDataHandler(func(data []byte) { got.Write(data) })
	})
	if err := sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got.String() != "login: " {
		t.Fatalf("banner = %q, want %q", got.String(), "login: ")
	}
}

func TestTCPLargeTransfer(t *testing.T) {
	sched, client, server, _ := tcpPair(t)

	// 200 KB spans many windows; verifies go-back-N bookkeeping.
	payload := make([]byte, 200*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}

	var got bytes.Buffer
	if _, err := server.ListenTCP(80, func(c *TCPConn) {
		c.SetDataHandler(func(data []byte) { got.Write(data) })
	}); err != nil {
		t.Fatal(err)
	}
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 80), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Send(payload); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("transfer corrupted: got %d bytes, want %d", got.Len(), len(payload))
	}
}

func TestTCPConnectionRefused(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	var dialErr error
	done := false
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 9999), func(c *TCPConn, err error) {
		dialErr = err
		done = true
	})
	if err := sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("dial callback never fired")
	}
	if dialErr == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestTCPDialTimeoutWhenPeerDown(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	server.DefaultDevice().SetUp(false)
	var dialErr error
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		dialErr = err
	})
	if err := sched.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dialErr, ErrConnRefused) {
		t.Fatalf("dial err = %v, want ErrConnRefused", dialErr)
	}
}

// TestTCPDialFailsWhenEphemeralPortsRunOut: dials take the lowest
// free port from 32768 up; with every port to 65535 in use the next
// dial fails through its callback instead of wrapping into 0–32767,
// and once a port is freed the next dial takes it.
func TestTCPDialFailsWhenEphemeralPortsRunOut(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	dst := netip.AddrPortFrom(server.Addr4(), 23)
	for i := 0; i < 3; i++ {
		c := client.DialTCP(dst, nil)
		if got, want := c.LocalAddr().Port(), uint16(32768+i); got != want {
			t.Fatalf("dial %d: local port %d, want %d", i, got, want)
		}
	}
	for p := 32768 + 3; p <= 65535; p++ {
		client.net.tcpLocal[localKey{client.id, netip.AddrPortFrom(client.Addr4(), uint16(p))}] = 1
	}
	var dialErr error
	calls := 0
	c := client.DialTCP(dst, func(_ *TCPConn, err error) { dialErr, calls = err, calls+1 })
	if calls != 0 {
		t.Fatal("dial callback ran inside DialTCP")
	}
	if err := sched.Run(sched.Now()); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !errors.Is(dialErr, ErrNoFreePort) {
		t.Fatalf("dial with all ports in use: callback ran %d times with %v, want once with ErrNoFreePort (local %v)",
			calls, dialErr, c.LocalAddr())
	}
	if err := c.Send([]byte("x")); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("send on the failed dial: %v, want ErrConnClosed", err)
	}
	delete(client.net.tcpLocal, localKey{client.id, netip.AddrPortFrom(client.Addr4(), 40000)})
	if got := client.DialTCP(dst, nil).LocalAddr().Port(); got != 40000 {
		t.Fatalf("dial after port 40000 was freed: local port %d, want 40000", got)
	}
}

func TestTCPGracefulClose(t *testing.T) {
	sched, client, server, _ := tcpPair(t)

	var serverClosed, clientClosed bool
	var serverErr, clientErr error
	if _, err := server.ListenTCP(23, func(c *TCPConn) {
		c.SetCloseHandler(func(err error) { serverClosed, serverErr = true, err })
	}); err != nil {
		t.Fatal(err)
	}
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.SetCloseHandler(func(err error) { clientClosed, clientErr = true, err })
		if err := c.Send([]byte("bye")); err != nil {
			t.Errorf("send: %v", err)
		}
		c.Close()
	})
	if err := sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !serverClosed || !clientClosed {
		t.Fatalf("close handlers: server=%v client=%v", serverClosed, clientClosed)
	}
	if serverErr != nil || clientErr != nil {
		t.Fatalf("graceful close reported errors: server=%v client=%v", serverErr, clientErr)
	}
}

func TestTCPDataBeforeClose(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	var got bytes.Buffer
	if _, err := server.ListenTCP(23, func(c *TCPConn) {
		c.SetDataHandler(func(data []byte) { got.Write(data) })
	}); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("data"), 20000) // 80 KB then close
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Send(big); err != nil {
			t.Errorf("send: %v", err)
		}
		c.Close() // must flush all buffered data first
	})
	if err := sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(big) {
		t.Fatalf("received %d bytes before close, want %d", got.Len(), len(big))
	}
}

func TestTCPAbortResetsPeer(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	var serverErr error
	gotReset := false
	if _, err := server.ListenTCP(23, func(c *TCPConn) {
		c.SetCloseHandler(func(err error) { gotReset, serverErr = true, err })
	}); err != nil {
		t.Fatal(err)
	}
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		// Give the server a moment to fully establish, then abort.
		client.Sched().Schedule(100*sim.Millisecond, srcTest, c.Abort)
	})
	if err := sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !gotReset {
		t.Fatal("server close handler never fired after Abort")
	}
	if !errors.Is(serverErr, ErrConnReset) {
		t.Fatalf("server close err = %v, want ErrConnReset", serverErr)
	}
}

// TestTCPPeerDeathTimesOut kills the server's link as the client
// sends at t0. The data segment leaves at t0 and again after each
// backed-off RTO, at t0 + tcpRTO·(2^k − 1) for k = 1…tcpMaxRetries,
// and the next RTO closes the connection with ErrConnTimeout. Every
// frame bound for the server dies at its link: the handshake's last
// ACK, the 1 + tcpMaxRetries data segments, and the tcpMaxRetries
// SYN-ACK retransmissions of a server that never saw that ACK.
func TestTCPPeerDeathTimesOut(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	const msg = "are you there?"
	var closeErr error
	t0, closedAt := sim.Time(-1), sim.Time(-1)
	if _, err := server.ListenTCP(23, func(c *TCPConn) {}); err != nil {
		t.Fatal(err)
	}
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.SetCloseHandler(func(err error) { closedAt, closeErr = sched.Now(), err })
		// Kill the server's link (churn) from a scheduled event, then
		// try to send: the data is never acked and the connection must
		// time out.
		sched.Schedule(0, srcTest, func() {
			t0 = sched.Now()
			server.DefaultDevice().SetUp(false)
			if err := c.Send([]byte(msg)); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	})
	for t0 < 0 && sched.Now() < sim.Second {
		if err := sched.Run(sched.Now() + sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if t0 < 0 {
		t.Fatal("connection never established")
	}
	// A retransmission is on the client's link from the instant it
	// leaves until it is serialized; the link is idle just before.
	q := &client.DefaultDevice().queue
	for k := 1; k <= tcpMaxRetries; k++ {
		at := t0 + tcpRTO*(1<<k-1)
		if err := sched.Run(at - 1); err != nil {
			t.Fatal(err)
		}
		if q.len() != 0 {
			t.Fatalf("retransmission %d: client link busy before t0+%v", k, at-t0)
		}
		if err := sched.Run(at); err != nil {
			t.Fatal(err)
		}
		if q.len() != 1 || string(q.peek().Payload) != msg {
			t.Fatalf("retransmission %d: the data segment did not leave at t0+%v", k, at-t0)
		}
	}
	if err := sched.Run(5 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if closedAt < 0 {
		t.Fatal("connection to dead peer never timed out")
	}
	if !errors.Is(closeErr, ErrConnTimeout) {
		t.Fatalf("close err = %v, want ErrConnTimeout", closeErr)
	}
	if want := t0 + tcpRTO*(1<<(tcpMaxRetries+1)-1); closedAt != want {
		t.Fatalf("closed at t0+%v, want t0+%v", closedAt-t0, want-t0)
	}
	wantDropped(t, client.net, [NumDropReasons]uint64{DropDown: 1 + 1 + 2*tcpMaxRetries})
}

// TestTCPRetransmitSurvivesTransientOutage takes the server's link
// down for 500 ms as the client sends at t0. The handshake's last ACK,
// the data segment and its first retransmission, and one SYN-ACK
// retransmission die at the down link; the second retransmission, at
// t0 + 3·tcpRTO, crosses both 1 ms hops and is delivered.
func TestTCPRetransmitSurvivesTransientOutage(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	const msg = "persistent"
	var got bytes.Buffer
	t0, deliveredAt := sim.Time(-1), sim.Time(-1)
	if _, err := server.ListenTCP(23, func(c *TCPConn) {
		c.SetDataHandler(func(data []byte) {
			deliveredAt = sched.Now()
			got.Write(data)
		})
	}); err != nil {
		t.Fatal(err)
	}
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		// Brief outage right as data goes out: retransmission recovers.
		// The outage toggles run as scheduled events, as churn's do.
		sched.Schedule(0, srcTest, func() {
			t0 = sched.Now()
			server.DefaultDevice().SetUp(false)
			if err := c.Send([]byte(msg)); err != nil {
				t.Errorf("send: %v", err)
			}
		})
		client.Sched().Schedule(500*sim.Millisecond, srcTest, func() {
			server.DefaultDevice().SetUp(true)
		})
	})
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if got.String() != msg {
		t.Fatalf("after outage got %q", got.String())
	}
	// Both links run at 10 Mbps, so each hop serializes the segment in
	// the same time.
	ser := (10 * Mbps).TxTime(etherHeaderBytes + ipv4HeaderBytes + tcpHeaderBytes + len(msg))
	if want := t0 + 3*tcpRTO + 2*(sim.Millisecond+ser); deliveredAt != want {
		t.Fatalf("delivered at t0+%v, want t0+%v", deliveredAt-t0, want-t0)
	}
	wantDropped(t, client.net, [NumDropReasons]uint64{DropDown: 4})
}

func TestTCPSendAfterCloseFails(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	if _, err := server.ListenTCP(23, func(c *TCPConn) {}); err != nil {
		t.Fatal(err)
	}
	var sendErr error
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Close()
		sendErr = c.Send([]byte("too late"))
	})
	if err := sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if sendErr == nil {
		t.Fatal("Send after Close succeeded")
	}
}

func TestTCPMultipleConcurrentConns(t *testing.T) {
	sched, _, server, star := tcpPair(t)
	const n = 10
	received := make(map[string]string)
	if _, err := server.ListenTCP(23, func(c *TCPConn) {
		c.SetDataHandler(func(data []byte) {
			received[c.RemoteAddr().String()] += string(data)
		})
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		h := star.AttachHost("h"+string(rune('a'+i)), 10*Mbps, sim.Millisecond, 0)
		msg := []byte{byte('0' + i)}
		h.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			if err := c.Send(msg); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	}
	if err := sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(received) != n {
		t.Fatalf("server saw %d connections, want %d", len(received), n)
	}
}

func TestTCPListenerClose(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	l, err := server.ListenTCP(23, func(c *TCPConn) { t.Error("accepted after close") })
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	var dialErr error
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		dialErr = err
	})
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if dialErr == nil {
		t.Fatal("dial to closed listener succeeded")
	}
}

// TestTCPHostsKeptApart: the network keeps one set of TCP tables for
// every node, keyed by node, so hosts that share a listening port and
// an ephemeral port never see each other's connections. Two hosts
// listen on port 23 and each dials one server: both dials take port
// 32768, each host receives only its own echo, and closing one host's
// listener leaves the other's accepting.
func TestTCPHostsKeptApart(t *testing.T) {
	sched, a, server, star := tcpPair(t)
	b := star.AttachHost("client2", 10*Mbps, sim.Millisecond, 0)
	if _, err := server.ListenTCP(80, func(c *TCPConn) {
		c.SetDataHandler(func(data []byte) {
			if err := c.Send(append([]byte("echo:"), data...)); err != nil {
				t.Errorf("server send: %v", err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	hosts := []*Node{a, b}
	listeners := make([]*TCPListener, len(hosts))
	accepted := make([]int, len(hosts))
	got := make([]bytes.Buffer, len(hosts))
	for i, h := range hosts {
		l, err := h.ListenTCP(23, func(*TCPConn) { accepted[i]++ })
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		listeners[i] = l
		c := h.DialTCP(netip.AddrPortFrom(server.Addr4(), 80), func(c *TCPConn, err error) {
			if err != nil {
				t.Errorf("%s: dial: %v", h, err)
				return
			}
			c.SetDataHandler(func(data []byte) { got[i].Write(data) })
			if err := c.Send([]byte(h.Name())); err != nil {
				t.Errorf("%s: send: %v", h, err)
			}
		})
		if port := c.LocalAddr().Port(); port != ephemeralLow {
			t.Errorf("%s dialed from port %d, want %d", h, port, ephemeralLow)
		}
	}
	runTo(t, sched, 5*sim.Second)
	for i, h := range hosts {
		if want := "echo:" + h.Name(); got[i].String() != want {
			t.Errorf("%s received %q, want %q", h, got[i].String(), want)
		}
	}

	listeners[0].Close()
	dialErr := make([]error, len(hosts))
	dialed := make([]bool, len(hosts))
	for i, h := range hosts {
		server.DialTCP(netip.AddrPortFrom(h.Addr4(), 23), func(_ *TCPConn, err error) {
			dialErr[i], dialed[i] = err, true
		})
	}
	runTo(t, sched, sim.Minute)
	if !dialed[0] || dialErr[0] == nil || accepted[0] != 0 {
		t.Errorf("%s after its listener closed: dial done %v, err %v, accepted %d; want refused", a, dialed[0], dialErr[0], accepted[0])
	}
	if !dialed[1] || dialErr[1] != nil || accepted[1] != 1 {
		t.Errorf("%s: dial done %v, err %v, accepted %d; want one accepted connection", b, dialed[1], dialErr[1], accepted[1])
	}
}

func TestTCPDuplicateListen(t *testing.T) {
	_, _, server, _ := tcpPair(t)
	if _, err := server.ListenTCP(23, func(*TCPConn) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ListenTCP(23, func(*TCPConn) {}); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLT(1, 2) || seqLT(2, 1) {
		t.Fatal("seqLT basic")
	}
	// Wraparound: 0xFFFFFFFF < 5 in sequence space.
	if !seqLT(0xFFFFFFFF, 5) {
		t.Fatal("seqLT wraparound")
	}
	if !seqLEq(7, 7) {
		t.Fatal("seqLEq equality")
	}
}

func TestTCPIPv6(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	var got bytes.Buffer
	if _, err := server.ListenTCP(80, func(c *TCPConn) {
		c.SetDataHandler(func(data []byte) { got.Write(data) })
	}); err != nil {
		t.Fatal(err)
	}
	client.DialTCP(netip.AddrPortFrom(server.Addr6(), 80), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial v6: %v", err)
			return
		}
		if !c.LocalAddr().Addr().Is6() {
			t.Errorf("local addr %v is not IPv6", c.LocalAddr())
		}
		if err := c.Send([]byte("over v6")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	if err := sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got.String() != "over v6" {
		t.Fatalf("got %q", got.String())
	}
}
