package dnsmsg

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "connectivity-check.example.com", TypeA)
	got, err := Decode(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 0x1234 {
		t.Fatalf("ID = %#x", got.ID)
	}
	if got.IsResponse() {
		t.Fatal("query decoded as response")
	}
	if len(got.Questions) != 1 {
		t.Fatalf("questions = %d", len(got.Questions))
	}
	if got.Questions[0].Name != "connectivity-check.example.com" {
		t.Fatalf("name = %q", got.Questions[0].Name)
	}
	if got.Questions[0].Type != TypeA || got.Questions[0].Class != ClassIN {
		t.Fatalf("type/class = %d/%d", got.Questions[0].Type, got.Questions[0].Class)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	q := NewQuery(7, "x.io", TypeTXT)
	payload := []byte{0x41, 0x00, 0xff, 0x41, 0x90, 0x90} // binary RDATA incl. NULs
	r := NewResponse(q, TypeTXT, 60, payload)
	got, err := Decode(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsResponse() {
		t.Fatal("response flag lost")
	}
	if got.ID != 7 {
		t.Fatalf("ID = %d, want matching query", got.ID)
	}
	if len(got.Answers) != 1 {
		t.Fatalf("answers = %d", len(got.Answers))
	}
	a := got.Answers[0]
	if a.Name != "x.io" || a.Type != TypeTXT || a.TTL != 60 {
		t.Fatalf("answer = %+v", a)
	}
	if !bytes.Equal(a.Data, payload) {
		t.Fatalf("RDATA corrupted: %x", a.Data)
	}
}

func TestLargeBinaryRDATA(t *testing.T) {
	// ROP payloads are a few hundred bytes of arbitrary binary; they
	// must survive the round trip byte-exact.
	payload := make([]byte, 600)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	q := NewQuery(1, "a.b", TypeA)
	got, err := Decode(NewResponse(q, TypeA, 1, payload).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Answers[0].Data, payload) {
		t.Fatal("payload corrupted in transit")
	}
}

func TestDecodeTruncated(t *testing.T) {
	q := NewQuery(1, "example.com", TypeA)
	wire := q.Encode()
	for n := 0; n < len(wire); n++ {
		if _, err := Decode(wire[:n]); err == nil {
			t.Fatalf("Decode accepted %d/%d bytes", n, len(wire))
		}
	}
}

func TestRootName(t *testing.T) {
	q := NewQuery(1, "", TypeA)
	got, err := Decode(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "" {
		t.Fatalf("root name = %q", got.Questions[0].Name)
	}
}

func TestTrailingDotName(t *testing.T) {
	q := NewQuery(1, "example.com.", TypeA)
	got, err := Decode(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "example.com" {
		t.Fatalf("name = %q", got.Questions[0].Name)
	}
}

func TestCompressionPointer(t *testing.T) {
	// Hand-build a response whose answer name is a pointer to the
	// question name at offset 12.
	q := NewQuery(9, "ptr.example", TypeA)
	wire := q.Encode()
	wire[7] = 1                           // ANCOUNT = 1
	wire = append(wire, 0xc0, 12)         // pointer to question name
	wire = append(wire, 0, 1, 0, 1)       // TYPE A, CLASS IN
	wire = append(wire, 0, 0, 0, 5)       // TTL
	wire = append(wire, 0, 4, 1, 2, 3, 4) // RDLENGTH 4 + RDATA
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Name != "ptr.example" {
		t.Fatalf("pointer name = %q", got.Answers[0].Name)
	}
}

func TestForwardPointerRejected(t *testing.T) {
	wire := NewQuery(9, "x", TypeA).Encode()
	wire[7] = 1
	wire = append(wire, 0xc0, 200) // forward/self pointer
	wire = append(wire, 0, 1, 0, 1, 0, 0, 0, 5, 0, 0)
	if _, err := Decode(wire); err == nil {
		t.Fatal("forward compression pointer accepted")
	}
}

func TestPointerLoopRejected(t *testing.T) {
	// The question name is label "a", then a pointer back to that
	// label: behind the pointer, yet following it reads the pointer
	// again.
	wire := []byte{0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 'a', 0xc0, 12, 0, 1, 0, 1}
	if _, err := Decode(wire); err != ErrBadName {
		t.Fatalf("Decode of a pointer loop: err = %v, want %v", err, ErrBadName)
	}
}

func TestStringer(t *testing.T) {
	q := NewQuery(3, "a.b", TypeA)
	if q.String() == "" {
		t.Fatal("empty String")
	}
	r := NewResponse(q, TypeA, 1, nil)
	if r.String() == q.String() {
		t.Fatal("query and response render identically")
	}
}

// Property: encode/decode round-trips arbitrary RDATA.
func TestPropertyRDATARoundTrip(t *testing.T) {
	f := func(id uint16, data []byte) bool {
		if len(data) > 60000 {
			data = data[:60000]
		}
		q := NewQuery(id, "dev.local", TypeTXT)
		got, err := Decode(NewResponse(q, TypeTXT, 300, data).Encode())
		if err != nil {
			return false
		}
		return got.ID == id && bytes.Equal(got.Answers[0].Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary input.
func TestPropertyDecodeRobust(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("Decode panicked")
			}
		}()
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
