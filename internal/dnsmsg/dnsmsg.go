// Package dnsmsg implements the subset of the DNS wire format
// (RFC 1035) DDoSim needs: queries and responses with A/TXT answer
// records. Connman Devs resolve names through this format against the
// attacker's malicious DNS server, which smuggles the ROP payload in
// an answer's RDATA — the delivery vehicle for CVE-2017-12865.
package dnsmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Record types.
const (
	TypeA   uint16 = 1
	TypeTXT uint16 = 16
)

// ClassIN is the Internet class.
const ClassIN uint16 = 1

// Header flag bits (QR is the response bit).
const (
	FlagResponse uint16 = 1 << 15
	FlagRD       uint16 = 1 << 8
	FlagRA       uint16 = 1 << 7
)

// Errors returned by Decode.
var (
	ErrTruncated = errors.New("dnsmsg: truncated message")
	ErrBadName   = errors.New("dnsmsg: malformed name")
)

// Question is a single query entry.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// Record is a resource record in the answer section.
type Record struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  []byte
}

// Message is a DNS query or response.
type Message struct {
	ID        uint16
	Flags     uint16
	Questions []Question
	Answers   []Record
}

// IsResponse reports whether the QR bit is set.
func (m *Message) IsResponse() bool { return m.Flags&FlagResponse != 0 }

// NewQuery builds a recursive query for one name.
func NewQuery(id uint16, name string, qtype uint16) *Message {
	return &Message{
		ID:        id,
		Flags:     FlagRD,
		Questions: []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
}

// NewResponse builds a response answering q with a single record whose
// RDATA is data.
func NewResponse(q *Message, rtype uint16, ttl uint32, data []byte) *Message {
	resp := &Message{
		ID:    q.ID,
		Flags: FlagResponse | FlagRA,
	}
	resp.Questions = append(resp.Questions, q.Questions...)
	name := ""
	if len(q.Questions) > 0 {
		name = q.Questions[0].Name
	}
	resp.Answers = append(resp.Answers, Record{
		Name: name, Type: rtype, Class: ClassIN, TTL: ttl, Data: data,
	})
	return resp
}

// Encode renders the message in wire format.
func (m *Message) Encode() []byte {
	var b []byte
	b = binary.BigEndian.AppendUint16(b, m.ID)
	b = binary.BigEndian.AppendUint16(b, m.Flags)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Questions)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Answers)))
	b = binary.BigEndian.AppendUint16(b, 0) // NSCOUNT
	b = binary.BigEndian.AppendUint16(b, 0) // ARCOUNT
	for _, q := range m.Questions {
		b = appendName(b, q.Name)
		b = binary.BigEndian.AppendUint16(b, q.Type)
		b = binary.BigEndian.AppendUint16(b, q.Class)
	}
	for _, a := range m.Answers {
		b = appendName(b, a.Name)
		b = binary.BigEndian.AppendUint16(b, a.Type)
		b = binary.BigEndian.AppendUint16(b, a.Class)
		b = binary.BigEndian.AppendUint32(b, a.TTL)
		b = binary.BigEndian.AppendUint16(b, uint16(len(a.Data)))
		b = append(b, a.Data...)
	}
	return b
}

func appendName(b []byte, name string) []byte {
	name = strings.TrimSuffix(name, ".")
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) > 63 {
				label = label[:63]
			}
			b = append(b, byte(len(label)))
			b = append(b, label...)
		}
	}
	return append(b, 0)
}

// Decode parses a wire-format message.
func Decode(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, ErrTruncated
	}
	m := &Message{
		ID:    binary.BigEndian.Uint16(b[0:2]),
		Flags: binary.BigEndian.Uint16(b[2:4]),
	}
	qd := int(binary.BigEndian.Uint16(b[4:6]))
	an := int(binary.BigEndian.Uint16(b[6:8]))
	off := 12
	for i := 0; i < qd; i++ {
		name, n, err := readName(b, off)
		if err != nil {
			return nil, err
		}
		off = n
		if off+4 > len(b) {
			return nil, ErrTruncated
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  binary.BigEndian.Uint16(b[off : off+2]),
			Class: binary.BigEndian.Uint16(b[off+2 : off+4]),
		})
		off += 4
	}
	for i := 0; i < an; i++ {
		name, n, err := readName(b, off)
		if err != nil {
			return nil, err
		}
		off = n
		if off+10 > len(b) {
			return nil, ErrTruncated
		}
		rec := Record{
			Name:  name,
			Type:  binary.BigEndian.Uint16(b[off : off+2]),
			Class: binary.BigEndian.Uint16(b[off+2 : off+4]),
			TTL:   binary.BigEndian.Uint32(b[off+4 : off+8]),
		}
		rdlen := int(binary.BigEndian.Uint16(b[off+8 : off+10]))
		off += 10
		if off+rdlen > len(b) {
			return nil, ErrTruncated
		}
		rec.Data = append([]byte(nil), b[off:off+rdlen]...)
		off += rdlen
		m.Answers = append(m.Answers, rec)
	}
	return m, nil
}

func readName(b []byte, off int) (string, int, error) {
	start := off
	var labels []string
	for {
		if off >= len(b) {
			return "", 0, ErrTruncated
		}
		l := int(b[off])
		switch {
		case l == 0:
			return strings.Join(labels, "."), off + 1, nil
		case l&0xc0 == 0xc0:
			// Compression pointer: it must point before this name's
			// first byte. Pointing before the pointer is not enough: a
			// pointer back into its own name reads itself again,
			// forever.
			if off+1 >= len(b) {
				return "", 0, ErrTruncated
			}
			ptr := int(binary.BigEndian.Uint16(b[off:off+2]) & 0x3fff)
			if ptr >= start {
				return "", 0, ErrBadName
			}
			suffix, _, err := readName(b, ptr)
			if err != nil {
				return "", 0, err
			}
			labels = append(labels, suffix)
			return strings.Join(labels, "."), off + 2, nil
		case l > 63:
			return "", 0, ErrBadName
		default:
			if off+1+l > len(b) {
				return "", 0, ErrTruncated
			}
			labels = append(labels, string(b[off+1:off+1+l]))
			off += 1 + l
		}
	}
}

// String summarizes the message for traces.
func (m *Message) String() string {
	kind := "query"
	if m.IsResponse() {
		kind = "response"
	}
	name := "?"
	if len(m.Questions) > 0 {
		name = m.Questions[0].Name
	}
	return fmt.Sprintf("dns %s id=%d %s q=%d a=%d", kind, m.ID, name, len(m.Questions), len(m.Answers))
}
