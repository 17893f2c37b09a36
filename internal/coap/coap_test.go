package coap

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCodeClassification(t *testing.T) {
	if !POST.IsRequest() || !PUT.IsRequest() || !GET.IsRequest() {
		t.Error("methods must be requests")
	}
	if Changed.IsRequest() || CodeEmpty.IsRequest() {
		t.Error("responses/empty must not be requests")
	}
	if Changed.Class() != 2 || Changed.Detail() != 4 {
		t.Errorf("Changed = %d.%02d, want 2.04", Changed.Class(), Changed.Detail())
	}
	if BadRequest.Class() != 4 || ServerError.Class() != 5 {
		t.Error("error classes wrong")
	}
	for _, c := range []Code{GET, POST, PUT, DELETE, Changed, CodeEmpty} {
		if c.String() == "" {
			t.Errorf("Code(%d).String empty", c)
		}
	}
	for _, ty := range []Type{Confirmable, NonConfirmable, Acknowledgement, Reset, Type(7)} {
		if ty.String() == "" {
			t.Errorf("Type(%d).String empty", ty)
		}
	}
}

func TestRequestPath(t *testing.T) {
	m := NewRequest(Confirmable, POST, 42, "intf")
	if m.Path() != "intf" {
		t.Errorf("Path = %q, want intf", m.Path())
	}
	multi := NewRequest(NonConfirmable, PUT, 1, "harp", "part")
	if multi.Path() != "harp/part" {
		t.Errorf("Path = %q", multi.Path())
	}
	if (Message{}).Path() != "" {
		t.Error("empty message path should be empty")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := NewRequest(Confirmable, POST, 0x1234, "intf")
	m.Token = []byte{1, 2, 3}
	m.Options = append(m.Options, Option{Number: OptionContentFormat, Value: []byte{42}})
	m.Payload = []byte("hello harp")
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if back.Type != m.Type || back.Code != m.Code || back.MessageID != m.MessageID {
		t.Errorf("header mismatch: %+v vs %+v", back, m)
	}
	if !bytes.Equal(back.Token, m.Token) || !bytes.Equal(back.Payload, m.Payload) {
		t.Error("token/payload mismatch")
	}
	if back.Path() != "intf" {
		t.Errorf("path = %q", back.Path())
	}
	if len(back.Options) != 2 {
		t.Fatalf("options = %d, want 2", len(back.Options))
	}
}

func TestEncodeHeaderLayout(t *testing.T) {
	m := Message{Type: Confirmable, Code: GET, MessageID: 0xBEEF}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if wire[0] != 0x40 { // version 1, CON, TKL 0
		t.Errorf("first byte = %#x, want 0x40", wire[0])
	}
	if wire[1] != byte(GET) || wire[2] != 0xBE || wire[3] != 0xEF {
		t.Errorf("header = % x", wire[:4])
	}
	if len(wire) != 4 {
		t.Errorf("empty GET length = %d, want 4", len(wire))
	}
}

func TestEncodeLongOptionsExtendedNibbles(t *testing.T) {
	// Length 13..268 uses the 1-byte extension; > 268 the 2-byte one.
	long := bytes.Repeat([]byte{'x'}, 300)
	m := Message{Type: NonConfirmable, Code: PUT, MessageID: 9,
		Options: []Option{{Number: OptionUriPath, Value: long}}}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Options[0].Value, long) {
		t.Error("long option corrupted")
	}
	// Large option number uses the delta extension.
	m2 := Message{Type: NonConfirmable, Code: PUT, MessageID: 9,
		Options: []Option{{Number: 2000, Value: []byte("v")}}}
	wire2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back2, err := Decode(wire2)
	if err != nil {
		t.Fatal(err)
	}
	if back2.Options[0].Number != 2000 {
		t.Errorf("option number = %d, want 2000", back2.Options[0].Number)
	}
}

func TestEncodeErrors(t *testing.T) {
	m := Message{Token: bytes.Repeat([]byte{1}, 9)}
	if _, err := m.Encode(); !errors.Is(err, ErrBadToken) {
		t.Errorf("want ErrBadToken, got %v", err)
	}
	big := Message{Options: []Option{{Number: 1, Value: make([]byte, 0x10000)}}}
	if _, err := big.Encode(); !errors.Is(err, ErrBadOption) {
		t.Errorf("want ErrBadOption, got %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		err  error
	}{
		{"short", []byte{0x40, 0x01}, ErrTruncated},
		{"version", []byte{0x80, 0x01, 0, 0}, ErrBadVersion},
		{"token-length", []byte{0x49, 0x01, 0, 0}, ErrBadToken},
		{"token-truncated", []byte{0x42, 0x01, 0, 0, 0xAA}, ErrTruncated},
		{"marker-no-payload", []byte{0x40, 0x01, 0, 0, 0xFF}, ErrTruncated},
		{"option-truncated", []byte{0x40, 0x01, 0, 0, 0x11}, ErrTruncated},
		{"option-reserved", []byte{0x40, 0x01, 0, 0, 0xF1, 0x00}, ErrBadOption},
		{"delta-ext-truncated", []byte{0x40, 0x01, 0, 0, 0xD1}, ErrTruncated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode(c.data); !errors.Is(err, c.err) {
				t.Errorf("Decode(% x) err = %v, want %v", c.data, err, c.err)
			}
		})
	}
}

func TestRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Message{
			Type:      Type(rng.Intn(4)),
			Code:      Code(rng.Intn(200)),
			MessageID: uint16(rng.Intn(1 << 16)),
		}
		if n := rng.Intn(9); n > 0 {
			m.Token = make([]byte, n)
			rng.Read(m.Token)
		}
		for i := 0; i < rng.Intn(4); i++ {
			v := make([]byte, rng.Intn(20))
			rng.Read(v)
			m.Options = append(m.Options, Option{Number: uint16(1 + rng.Intn(500)), Value: v})
		}
		if rng.Intn(2) == 1 {
			m.Payload = make([]byte, 1+rng.Intn(64))
			rng.Read(m.Payload)
		}
		wire, err := m.Encode()
		if err != nil {
			return false
		}
		back, err := Decode(wire)
		if err != nil {
			return false
		}
		if back.Type != m.Type || back.Code != m.Code || back.MessageID != m.MessageID {
			return false
		}
		if !bytes.Equal(back.Token, m.Token) || !bytes.Equal(back.Payload, m.Payload) {
			return false
		}
		if len(back.Options) != len(m.Options) {
			return false
		}
		// Options are re-ordered by number on encode; compare as multisets
		// keyed by number.
		want := map[uint16][]string{}
		for _, o := range m.Options {
			want[o.Number] = append(want[o.Number], string(o.Value))
		}
		got := map[uint16][]string{}
		for _, o := range back.Options {
			got[o.Number] = append(got[o.Number], string(o.Value))
		}
		if len(want) != len(got) {
			return false
		}
		for num, vs := range want {
			if len(got[num]) != len(vs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAppendToAllocFree pins the //harplint:hotpath contract on the
// encoder: serialising into a reused scratch buffer with in-order options
// allocates nothing.
func TestAppendToAllocFree(t *testing.T) {
	m := Message{
		Type:      Confirmable,
		Code:      POST,
		MessageID: 0x1234,
		Token:     []byte{0xAA, 0xBB},
		Options: []Option{
			{Number: OptionUriPath, Value: []byte("partition")},
			{Number: OptionContentFormat, Value: []byte{42}},
		},
		Payload: []byte(`{"cells":3}`),
	}
	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(1000, func() {
		out, err := m.AppendTo(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	})
	if allocs != 0 {
		t.Errorf("AppendTo into scratch buffer allocates %.2f times, want 0", allocs)
	}
	// The reused-buffer encoding must match the allocating Encode path.
	want, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("AppendTo = %x, Encode = %x", got, want)
	}
}

// TestDecodeFormsAllocations pins the two decoders' cost on a Table I
// message (token, path, payload): the borrowed parse into warm option
// storage allocates nothing; the owning Decode allocates twice — one
// buffer for all the bytes, one option slice — whatever the field count.
func TestDecodeFormsAllocations(t *testing.T) {
	m := NewRequest(NonConfirmable, POST, 7, "intf")
	m.Token = []byte{1, 2}
	m.Payload = []byte{0, 1, 0, 0, 0, 2}
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var opts []Option
	parse := func() {
		got, err := ParseBorrowed(wire, opts)
		if err != nil || got.MessageID != 7 {
			t.Fatalf("ParseBorrowed: %+v, %v", got, err)
		}
		opts = got.Options
	}
	parse()
	if allocs := testing.AllocsPerRun(1000, parse); allocs != 0 {
		t.Errorf("ParseBorrowed into warm storage allocates %.2f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := Decode(wire); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("Decode allocates %.2f times, want 2", allocs)
	}
}

// TestCloneFieldsCannotReachEachOther: Clone packs every field into one
// buffer, so each field's capacity must stop at its own end.
func TestCloneFieldsCannotReachEachOther(t *testing.T) {
	m := NewRequest(Confirmable, PUT, 9, "part")
	m.Token = []byte{0xAA}
	m.Payload = []byte("pay")
	c := m.Clone()
	c.Token = append(c.Token, 0xFF)
	c.Options[0].Value = append(c.Options[0].Value, 'X')
	if string(c.Payload) != "pay" || c.Path() != "partX" || m.Path() != "part" {
		t.Errorf("appending to one cloned field reached another: %+v (original %+v)", c, m)
	}
}
