// Package p2pbot implements the decentralized botnet family: bots
// join a Kademlia overlay (internal/dht), poll a signed command record
// replicated across the peers themselves, and run the same flood
// engine as their Mirai siblings (internal/mirai). There is no C&C
// connection to sever — the takedown-resilience contrast the paper's
// §V resilience story needs a baseline against.
package p2pbot

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"net/netip"

	"ddosim/internal/sim"
)

// CommandChannel is the well-known record name both families of
// overlay participant derive the command key from.
const CommandChannel = "ddosim/cmd/v1"

// Record is one signed attack order. Unlike a Mirai command — a live
// TCP line with a per-bot duration — a record names an absolute
// campaign end instant, so any replica fetched at any time yields the
// same flood window on every bot.
type Record struct {
	// Seq orders records; bots and the DHT store accept only fresher
	// sequences, so a re-published record supersedes cleanly.
	Seq uint64
	// Method is a mirai attack method name (udpplain/syn/ack).
	Method string
	// Target is the flood destination.
	Target netip.AddrPort
	// Until is the campaign's absolute end time.
	Until sim.Time
}

// Encode serializes and signs the record with the botmaster's ed25519
// key. Layout: seq(8) | until(8) | port(2) | alen(1) | addr | mlen(1)
// | method | sig(64), signature over everything before it.
func (r *Record) Encode(priv ed25519.PrivateKey) []byte {
	buf := make([]byte, 0, 96)
	buf = binary.BigEndian.AppendUint64(buf, r.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Until))
	buf = binary.BigEndian.AppendUint16(buf, r.Target.Port())
	if r.Target.Addr().Is4() {
		a := r.Target.Addr().As4()
		buf = append(buf, 4)
		buf = append(buf, a[:]...)
	} else {
		a := r.Target.Addr().As16()
		buf = append(buf, 16)
		buf = append(buf, a[:]...)
	}
	buf = append(buf, byte(len(r.Method)))
	buf = append(buf, r.Method...)
	return append(buf, ed25519.Sign(priv, buf)...)
}

// DecodeRecord parses and authenticates a record against the
// botmaster's public key. Tampered, truncated, or foreign-key records
// are rejected — a peer cannot inject commands into the overlay.
func DecodeRecord(pub ed25519.PublicKey, data []byte) (*Record, error) {
	if len(data) < 8+8+2+1+4+1+ed25519.SignatureSize {
		return nil, fmt.Errorf("p2pbot: record too short (%d bytes)", len(data))
	}
	body, sig := data[:len(data)-ed25519.SignatureSize], data[len(data)-ed25519.SignatureSize:]
	if !ed25519.Verify(pub, body, sig) {
		return nil, fmt.Errorf("p2pbot: bad record signature")
	}
	r := &Record{
		Seq:   binary.BigEndian.Uint64(body),
		Until: sim.Time(binary.BigEndian.Uint64(body[8:])),
	}
	port := binary.BigEndian.Uint16(body[16:])
	alen := int(body[18])
	rest := body[19:]
	if (alen != 4 && alen != 16) || len(rest) < alen+1 {
		return nil, fmt.Errorf("p2pbot: bad record address")
	}
	addr, ok := netip.AddrFromSlice(rest[:alen])
	if !ok {
		return nil, fmt.Errorf("p2pbot: bad record address")
	}
	r.Target = netip.AddrPortFrom(addr, port)
	rest = rest[alen:]
	mlen := int(rest[0])
	if len(rest) < 1+mlen {
		return nil, fmt.Errorf("p2pbot: bad record method")
	}
	r.Method = string(rest[1 : 1+mlen])
	return r, nil
}

// DeriveKey expands a deterministic 32-byte seed into the botmaster
// keypair; the simulation derives the seed from the run's RNG seed so
// same-seed runs sign byte-identical records.
func DeriveKey(seed [ed25519.SeedSize]byte) (ed25519.PublicKey, ed25519.PrivateKey) {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return priv.Public().(ed25519.PublicKey), priv
}

// recordCheck authenticates command records for every bot of one run.
// It remembers the last record bytes that passed DecodeRecord: equal
// bytes are the same record under the same key, so they skip
// ed25519.Verify and yield the cached Record. Any other bytes, forged
// ones included, still go through DecodeRecord. A run is one
// goroutine, so a check needs no lock; it must never be shared across
// runs.
type recordCheck struct {
	pub  ed25519.PublicKey
	data []byte // private copy of the last bytes that passed
	rec  Record

	// Counters for tests: memo hits, and DecodeRecord calls.
	hits, verified int
}

// decode returns what DecodeRecord(c.pub, data) would, verifying only
// bytes that differ from the last ones that passed.
func (c *recordCheck) decode(data []byte) (Record, error) {
	if len(c.data) > 0 && bytes.Equal(data, c.data) {
		c.hits++
		return c.rec, nil
	}
	c.verified++
	r, err := DecodeRecord(c.pub, data)
	if err != nil {
		return Record{}, err
	}
	c.data = append(c.data[:0], data...)
	c.rec = *r
	return c.rec, nil
}
