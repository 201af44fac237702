package p2pbot

import (
	"crypto/ed25519"
	"net/netip"
	"testing"

	"ddosim/internal/mirai"
	"ddosim/internal/sim"
)

// FuzzDecodeRecord feeds hostile bytes to the record decoder, raw and
// again with a valid test-key signature appended so they reach the
// parser behind ed25519.Verify. DecodeRecord must not panic, and a
// recordCheck fed the same inputs in order, twice over so that the
// second pass meets its memo, must agree with it on every one.
func FuzzDecodeRecord(f *testing.F) {
	seed, _ := testKey()
	pub, priv := DeriveKey(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		signed := append(append([]byte(nil), data...), ed25519.Sign(priv, data)...)
		c := &recordCheck{pub: pub}
		for i, in := range [][]byte{data, signed, data, signed} {
			want, wantErr := DecodeRecord(pub, in)
			got, err := c.decode(in)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("input %d: recordCheck error %v, DecodeRecord error %v", i, err, wantErr)
			}
			if err == nil && got != *want {
				t.Fatalf("input %d: recordCheck %+v, DecodeRecord %+v", i, got, *want)
			}
		}
	})
}

// BenchmarkRecordCheck prices one delivery: a miss runs DecodeRecord
// (two signed records alternate), a hit matches the memo.
func BenchmarkRecordCheck(b *testing.B) {
	seed, _ := testKey()
	pub, priv := DeriveKey(seed)
	target := netip.MustParseAddrPort("10.0.9.9:80")
	recs := [2][]byte{
		(&Record{Seq: 1, Method: mirai.MethodUDPPlain, Target: target, Until: 60 * sim.Second}).Encode(priv),
		(&Record{Seq: 2, Method: mirai.MethodSYN, Target: target, Until: 90 * sim.Second}).Encode(priv),
	}
	for _, bc := range []struct {
		name string
		mask int
	}{{"miss", 1}, {"hit", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			// Prime the memo with the record i = 0 does not send (miss)
			// or sends (hit).
			c := &recordCheck{pub: pub}
			if _, err := c.decode(recs[bc.mask]); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(recs[i&bc.mask]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
