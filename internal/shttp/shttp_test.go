package shttp

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"

	"ddosim/internal/netsim"
	"ddosim/internal/sim"
)

func setup(t *testing.T) (*sim.Scheduler, *netsim.Node, *netsim.Node) {
	t.Helper()
	sched := sim.NewScheduler(5)
	w := netsim.New(sched)
	star := netsim.NewStar(w)
	client := star.AttachHost("client", 10*netsim.Mbps, sim.Millisecond, 0)
	server := star.AttachHost("server", 10*netsim.Mbps, sim.Millisecond, 0)
	return sched, client, server
}

func TestGetStaticRoute(t *testing.T) {
	sched, client, server := setup(t)
	srv, err := NewServer(server, 80)
	if err != nil {
		t.Fatal(err)
	}
	srv.Handle("/bins/mirai.x86_64", []byte("ELF:mirai:x86_64"))

	var body []byte
	var gerr error
	url := "http://" + server.Addr4().String() + "/bins/mirai.x86_64"
	Get(client, url, func(b []byte, err error) { body, gerr = b, err })
	if err := sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if gerr != nil {
		t.Fatal(gerr)
	}
	if string(body) != "ELF:mirai:x86_64" {
		t.Fatalf("body = %q", body)
	}
	if srv.Requests != 1 {
		t.Fatalf("requests = %d", srv.Requests)
	}
}

func TestGetLargeBinary(t *testing.T) {
	sched, client, server := setup(t)
	srv, err := NewServer(server, 80)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 300*1024)
	for i := range big {
		big[i] = byte(i)
	}
	srv.Handle("/big", big)
	var body []byte
	var gerr error
	Get(client, "http://"+server.Addr4().String()+"/big", func(b []byte, err error) { body, gerr = b, err })
	if err := sched.Run(2 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	if gerr != nil {
		t.Fatal(gerr)
	}
	if !bytes.Equal(body, big) {
		t.Fatalf("large download corrupted: %d bytes", len(body))
	}
}

func TestGet404(t *testing.T) {
	sched, client, server := setup(t)
	srv, err := NewServer(server, 80)
	if err != nil {
		t.Fatal(err)
	}
	var gerr error
	called := false
	Get(client, "http://"+server.Addr4().String()+"/missing", func(b []byte, err error) {
		called, gerr = true, err
	})
	if err := sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("callback never fired")
	}
	if !errors.Is(gerr, ErrBadStatus) {
		t.Fatalf("err = %v, want ErrBadStatus", gerr)
	}
	if srv.NotFound != 1 {
		t.Fatalf("NotFound = %d", srv.NotFound)
	}
}

func TestGetConnectionRefused(t *testing.T) {
	sched, client, server := setup(t)
	var gerr error
	Get(client, "http://"+server.Addr4().String()+":81/x", func(b []byte, err error) { gerr = err })
	if err := sched.Run(sim.Minute); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gerr, ErrConnFailed) {
		t.Fatalf("err = %v, want ErrConnFailed", gerr)
	}
}

func TestHandleFunc(t *testing.T) {
	sched, client, server := setup(t)
	srv, err := NewServer(server, 80)
	if err != nil {
		t.Fatal(err)
	}
	srv.HandleFunc(func(path string) ([]byte, bool) {
		if path == "/dynamic" {
			return []byte("generated"), true
		}
		return nil, false
	})
	var body []byte
	Get(client, "http://"+server.Addr4().String()+"/dynamic", func(b []byte, err error) { body = b })
	if err := sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if string(body) != "generated" {
		t.Fatalf("body = %q", body)
	}
}

func TestGetIPv6URL(t *testing.T) {
	sched, client, server := setup(t)
	if _, err := NewServer(server, 80); err != nil {
		t.Fatal(err)
	}
	srv := server.Network().Node("server")
	_ = srv
	var gerr error
	called := false
	Get(client, "http://["+server.Addr6().String()+"]/", func(b []byte, err error) { called, gerr = true, err })
	if err := sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("callback never fired")
	}
	// Root path unregistered: 404 is the expected outcome; transport
	// over IPv6 worked if we got an HTTP-level error.
	if !errors.Is(gerr, ErrBadStatus) {
		t.Fatalf("err = %v, want ErrBadStatus over IPv6", gerr)
	}
}

func TestParseURL(t *testing.T) {
	ap, path, err := ParseURL("http://10.0.0.1/a/b")
	if err != nil || ap != netip.MustParseAddrPort("10.0.0.1:80") || path != "/a/b" {
		t.Fatalf("got %v %q %v", ap, path, err)
	}
	ap, path, err = ParseURL("http://10.0.0.1:8080/x")
	if err != nil || ap.Port() != 8080 || path != "/x" {
		t.Fatalf("got %v %q %v", ap, path, err)
	}
	ap, _, err = ParseURL("http://[fd00::1]:8080/x")
	if err != nil || ap != netip.MustParseAddrPort("[fd00::1]:8080") {
		t.Fatalf("got %v %v", ap, err)
	}
	if _, _, err := ParseURL("ftp://x/"); !errors.Is(err, ErrBadURL) {
		t.Fatalf("ftp err = %v", err)
	}
	if _, _, err := ParseURL("http://not-an-ip/"); err == nil {
		t.Fatal("hostname accepted (no DNS in shttp)")
	}
	ap, path, err = ParseURL("http://10.0.0.1")
	if err != nil || path != "/" {
		t.Fatalf("bare host: %v %q %v", ap, path, err)
	}
}

func TestParseResponseHead(t *testing.T) {
	n, err := parseResponseHead("HTTP/1.0 200 OK\r\nContent-Length: 42")
	if err != nil || n != 42 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, err := parseResponseHead("HTTP/1.0 200 OK"); err == nil {
		t.Fatal("missing content-length accepted")
	}
	if _, err := parseResponseHead("garbage"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := parseResponseHead("HTTP/1.0 500 Oops\r\nContent-Length: 0"); !errors.Is(err, ErrBadStatus) {
		t.Fatal("500 not flagged")
	}
}

// FuzzParseURL feeds hostile URLs to ParseURL, which parses the URLs
// in shell commands such as the infection script's download. An
// accepted URL, rebuilt from its endpoint and path, must parse to the
// same endpoint and path.
func FuzzParseURL(f *testing.F) {
	f.Fuzz(func(t *testing.T, url string) {
		ap, path, err := ParseURL(url)
		if err != nil {
			return
		}
		again := "http://" + ap.String() + path
		ap2, path2, err := ParseURL(again)
		if err != nil || ap2 != ap || path2 != path {
			t.Fatalf("ParseURL(%q) = %v %q, but its rebuild %q gives %v %q %v", url, ap, path, again, ap2, path2, err)
		}
	})
}
