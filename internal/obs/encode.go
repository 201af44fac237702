package obs

import (
	"encoding/json"
	"io"
	"net/netip"
	"strconv"
)

// encFlushSize is the export writers' Write size: an artifact reaches its
// io.Writer in Writes of at least this many bytes, plus one final Write.
const encFlushSize = 64 << 10

// encHeadroom lets the record that crosses encFlushSize finish in place,
// so the buffer is allocated once per export instead of grown.
const encHeadroom = 4 << 10

// enc is the append encoder behind every trace, flow and time-series
// writer. A writer appends each record to one reused buffer with the
// helpers below — numbers through strconv, endpoints through
// netip.AddrPort.AppendTo, strings copied or JSON-escaped — and calls
// endRecord; once the buffer holds encFlushSize bytes it goes out in one
// Write and starts over. Exporting therefore needs no memory beyond the
// stored run and this buffer, whatever the record count.
type enc struct {
	w   io.Writer
	buf []byte
}

func newEnc(w io.Writer) *enc {
	return &enc{w: w, buf: make([]byte, 0, encFlushSize+encHeadroom)}
}

// endRecord closes one record, flushing the buffer once it is full.
func (e *enc) endRecord() error {
	if len(e.buf) < encFlushSize {
		return nil
	}
	return e.flush()
}

// flush writes out whatever the buffer holds.
func (e *enc) flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

func (e *enc) raw(s string) { e.buf = append(e.buf, s...) }

func (e *enc) int(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

func (e *enc) uint(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }

// float appends v in the shortest form that round-trips ('g', -1).
func (e *enc) float(v float64) { e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64) }

// quote appends s Go-quoted, as fmt's %q renders it.
func (e *enc) quote(s string) { e.buf = strconv.AppendQuote(e.buf, s) }

// str appends s as a JSON string.
func (e *enc) str(s string) { e.buf = appendJSONString(e.buf, s) }

// appendJSONString appends s as a JSON string, byte for byte as
// encoding/json renders it. Printable ASCII outside encoding/json's
// HTML-safe escapes (<, >, &) is copied between quotes; any other string
// is rare enough in a run's artifacts to go through json.Marshal itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			m, _ := json.Marshal(s) // a string always marshals
			return append(b, m...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// addrPort appends p as fmt's %s renders it. That is AppendTo's text,
// except for the zero AddrPort, which String spells out and AppendTo
// leaves empty.
func (e *enc) addrPort(p netip.AddrPort) {
	if !p.Addr().IsValid() {
		e.raw("invalid AddrPort")
		return
	}
	e.buf = p.AppendTo(e.buf)
}

// jsonAddrPort appends p's %s text as a JSON string. Addresses and ports
// render as plain ASCII; only an IPv6 zone can need escaping.
func (e *enc) jsonAddrPort(p netip.AddrPort) {
	if p.Addr().Zone() != "" {
		e.str(p.String())
		return
	}
	e.raw(`"`)
	e.addrPort(p)
	e.raw(`"`)
}

// jsonStrs is a tracer's string table JSON-encoded for one export. Each
// distinct string is scanned and escaped once; a record that names it
// copies the bytes. String id i encodes as blob[off[i]:off[i+1]].
type jsonStrs struct {
	strs []string
	blob []byte
	off  []uint32
}

func encodeStrs(strs []string) *jsonStrs {
	js := &jsonStrs{strs: strs, off: make([]uint32, 1, len(strs)+1)}
	for _, s := range strs {
		js.blob = appendJSONString(js.blob, s)
		js.off = append(js.off, uint32(len(js.blob)))
	}
	return js
}

// id appends the JSON encoding of string id.
func (e *enc) id(js *jsonStrs, id uint32) {
	e.buf = append(e.buf, js.blob[js.off[id]:js.off[id+1]]...)
}

// args appends `,"args":{...}` for a non-empty list of (key id, value
// id) pairs, the way encoding/json renders the map[string]string the
// list stands for: keys in byte order, a repeated key keeping its last
// value. The tracer's arena is left as recorded; the sort runs over
// indices, on the stack for the handful of annotations an entry
// carries. The table holds each string once, so equal keys have equal
// ids.
func (e *enc) args(js *jsonStrs, pairs []uint32) {
	n := len(pairs) / 2
	if n == 0 {
		return
	}
	var small [8]int
	idx := small[:0]
	if n > len(small) {
		idx = make([]int, 0, n)
	}
	key := func(i int) string { return js.strs[pairs[2*i]] }
	// Stable insertion sort: equal keys keep record order.
	for i := 0; i < n; i++ {
		idx = append(idx, i)
		j := len(idx) - 1
		for ; j > 0 && key(idx[j-1]) > key(i); j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = i
	}
	e.raw(`,"args":{`)
	first := true
	for m, i := range idx {
		if m+1 < n && pairs[2*idx[m+1]] == pairs[2*i] {
			continue // a later value for this key wins
		}
		if !first {
			e.raw(",")
		}
		first = false
		e.id(js, pairs[2*i])
		e.raw(":")
		e.id(js, pairs[2*i+1])
	}
	e.raw("}")
}
