package coap

import (
	"bytes"
	"reflect"
	"testing"
)

// checkForms holds the two parsers of one wire buffer against each other:
// ParseBorrowed and the owning Decode must fail with the same error or
// yield deep-equal messages (also when the borrowed parse reuses option
// storage), and overwriting the input after an owning Decode must leave
// that message intact.
func checkForms(t *testing.T, data []byte) {
	t.Helper()
	wire := append([]byte(nil), data...) // the fuzz input itself is not ours to scribble on
	owned, errOwned := Decode(wire)
	borrowed, errBorrowed := ParseBorrowed(wire, nil)
	if errOwned != errBorrowed {
		t.Fatalf("Decode error %v, ParseBorrowed error %v (% x)", errOwned, errBorrowed, wire)
	}
	if errOwned != nil {
		return
	}
	if !reflect.DeepEqual(owned, borrowed) {
		t.Fatalf("forms differ on % x:\n   owned %+v\nborrowed %+v", wire, owned, borrowed)
	}
	reused, err := ParseBorrowed(wire, make([]Option, 3, 8))
	if err != nil || !reflect.DeepEqual(owned, reused.Clone()) {
		t.Fatalf("borrowed parse into reused storage differs on % x: %v\n owned %+v\nreused %+v", wire, err, owned, reused)
	}
	for i := range wire {
		wire[i] ^= 0xA5
	}
	if again, err := Decode(data); err != nil || !reflect.DeepEqual(owned, again) {
		t.Fatalf("overwriting the input changed an owning Decode: %+v, want %+v (%v)", owned, again, err)
	}
}

// FuzzDecode feeds arbitrary bytes to the wire decoder. Decode must never
// panic, its borrowed and owning forms must agree (checkForms), and any
// message it accepts must re-encode to a canonical form that decodes to
// the same bytes again (encode∘decode is a fixpoint on everything Decode
// accepts).
func FuzzDecode(f *testing.F) {
	seeds := [][]byte{
		{},                       // empty
		{0x40, 0x00, 0x00, 0x00}, // minimal CON empty message
		{0x50, 0x02, 0x12, 0x34}, // NON POST
		{0xff, 0xff, 0xff, 0xff}, // bad version
		{0x48, 0x01, 0x00, 0x01, 1, 2, 3, 4, 5, 6, 7, 8}, // 8-byte token
		{0x40, 0x45, 0x00, 0x02, 0xff, 0xde, 0xad},       // payload marker
	}
	m := NewRequest(NonConfirmable, POST, 7, "intf")
	m.Payload = []byte{9, 9, 9}
	if wire, err := m.Encode(); err == nil {
		seeds = append(seeds, wire)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkForms(t, data)
		msg, err := Decode(data)
		if err != nil {
			return
		}
		wire1, err := msg.Encode()
		if err != nil {
			t.Fatalf("decoded message fails to re-encode: %v (%+v)", err, msg)
		}
		msg2, err := Decode(wire1)
		if err != nil {
			t.Fatalf("re-encoded message fails to decode: %v (% x)", err, wire1)
		}
		wire2, err := msg2.Encode()
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(wire1, wire2) {
			t.Fatalf("encoding not canonical:\n first: % x\nsecond: % x", wire1, wire2)
		}
	})
}

// FuzzRoundTrip builds structurally valid messages from fuzzed fields and
// asserts Encode→Decode preserves every field HARP relies on, in both
// forms of the decoder.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint8(0x02), uint16(1), []byte{0xab}, "intf", []byte("payload"))
	f.Add(uint8(1), uint8(0x45), uint16(65535), []byte{}, "part", []byte{})
	f.Add(uint8(2), uint8(0x04), uint16(42), []byte{1, 2, 3, 4, 5, 6, 7, 8}, "sched", []byte{0xff})
	f.Fuzz(func(t *testing.T, typ, code uint8, mid uint16, token []byte, path string, payload []byte) {
		if len(token) > 8 || len(path) == 0 || len(path) > 255 {
			return // outside the wire format's domain
		}
		msg := NewRequest(Type(typ%4), Code(code), mid, path)
		msg.Token = token
		msg.Payload = payload
		wire, err := msg.Encode()
		if err != nil {
			// Encode may reject option values it cannot represent; that is
			// a correct refusal, not a bug.
			return
		}
		checkForms(t, wire)
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v (% x)", err, wire)
		}
		if got.Type != msg.Type || got.Code != msg.Code || got.MessageID != msg.MessageID {
			t.Fatalf("header mismatch: sent %+v got %+v", msg, got)
		}
		if !bytes.Equal(got.Token, msg.Token) {
			t.Fatalf("token mismatch: sent % x got % x", msg.Token, got.Token)
		}
		if !bytes.Equal(got.Payload, msg.Payload) {
			t.Fatalf("payload mismatch: sent % x got % x", msg.Payload, got.Payload)
		}
		if got.Path() != msg.Path() {
			t.Fatalf("path mismatch: sent %q got %q", msg.Path(), got.Path())
		}
	})
}
