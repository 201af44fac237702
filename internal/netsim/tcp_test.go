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
		client.Sched().Schedule(100*sim.Millisecond, c.Abort)
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

func TestTCPPeerDeathTimesOut(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	var closeErr error
	closed := false
	if _, err := server.ListenTCP(23, func(c *TCPConn) {}); err != nil {
		t.Fatal(err)
	}
	client.DialTCP(netip.AddrPortFrom(server.Addr4(), 23), func(c *TCPConn, err error) {
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.SetCloseHandler(func(err error) { closed, closeErr = true, err })
		// Kill the server's link (churn) from a scheduled event, then
		// try to send: the data is never acked and the connection must
		// time out.
		sched.Schedule(0, func() {
			server.DefaultDevice().SetUp(false)
			if err := c.Send([]byte("are you there?")); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	})
	if err := sched.Run(5 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !closed {
		t.Fatal("connection to dead peer never timed out")
	}
	if !errors.Is(closeErr, ErrConnTimeout) {
		t.Fatalf("close err = %v, want ErrConnTimeout", closeErr)
	}
}

func TestTCPRetransmitSurvivesTransientOutage(t *testing.T) {
	sched, client, server, _ := tcpPair(t)
	var got bytes.Buffer
	if _, err := server.ListenTCP(23, func(c *TCPConn) {
		c.SetDataHandler(func(data []byte) { got.Write(data) })
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
		sched.Schedule(0, func() {
			server.DefaultDevice().SetUp(false)
			if err := c.Send([]byte("persistent")); err != nil {
				t.Errorf("send: %v", err)
			}
		})
		client.Sched().Schedule(500*sim.Millisecond, func() {
			server.DefaultDevice().SetUp(true)
		})
	})
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if got.String() != "persistent" {
		t.Fatalf("after outage got %q", got.String())
	}
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
