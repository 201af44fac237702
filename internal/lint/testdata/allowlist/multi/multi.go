// Package multi exercises the extended allow-annotation grammar:
// comma-separated analyzer lists, digits in analyzer names, and the
// malformed-annotation diagnostics that must survive the extension.
package multi

import "ddosim/internal/netsim"

// CommaList: one annotation suppresses several analyzers with one
// shared, audited reason.
func CommaList(w *netsim.Network) int {
	p := w.AllocPacket()
	w.ReleasePacket(p)
	//simlint:allow pktown,stalecapture(comma-list fixture: one audited reason covers both analyzers)
	return p.PayloadSize()
}

// DigitsInName: analyzer names may contain digits (but not start with
// one); an unknown name is not malformed (-unused-allows reports it).
func DigitsInName() {
	//simlint:allow ipv6check2(digits in analyzer names parse)
	_ = 0
}

// Malformed annotations must still be diagnosed:
//
//simlint:allow pktown()
//simlint:allow Bad-Name(uppercase and dash are not an analyzer name)
//simlint:allow 2fast(names cannot start with a digit)
func Malformed() {}
