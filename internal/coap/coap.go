// Package coap implements the subset of the Constrained Application
// Protocol (RFC 7252) that HARP uses as its carrier (§VI-A, Table I):
// confirmable/non-confirmable messages, the GET/POST/PUT method codes and
// basic response codes, Uri-Path options, tokens and payloads, with the
// standard binary wire encoding. The agent layer routes HARP's four
// handlers (POST/PUT on /intf and /part) over these messages.
//
// There is one parser and two ways to hold its result. ParseBorrowed
// returns a Message whose Token, option values and Payload alias the input
// buffer: free, and valid only while the buffer is left alone — the
// transport's delivery path uses it and lends the message to the handler
// for one call. Decode is ParseBorrowed followed by Message.Clone: the
// message owns its bytes, for callers that keep it.
package coap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Type is the CoAP message type (RFC 7252 §3).
type Type uint8

// Message types.
const (
	Confirmable     Type = 0
	NonConfirmable  Type = 1
	Acknowledgement Type = 2
	Reset           Type = 3
)

// String names the CoAP message type (CON/NON/ACK/RST).
func (t Type) String() string {
	switch t {
	case Confirmable:
		return "CON"
	case NonConfirmable:
		return "NON"
	case Acknowledgement:
		return "ACK"
	case Reset:
		return "RST"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Code is the CoAP code registry value: class.detail packed as
// 3 bits class, 5 bits detail (RFC 7252 §12.1).
type Code uint8

// Method and response codes used by HARP.
const (
	CodeEmpty   Code = 0
	GET         Code = 0x01
	POST        Code = 0x02
	PUT         Code = 0x03
	DELETE      Code = 0x04
	Created     Code = 0x41 // 2.01
	Deleted     Code = 0x42 // 2.02
	Changed     Code = 0x44 // 2.04
	Content     Code = 0x45 // 2.05
	BadRequest  Code = 0x80 // 4.00
	NotFound    Code = 0x84 // 4.04
	ServerError Code = 0xA0 // 5.00
)

// Class returns the code class (0 = request, 2/4/5 = response classes).
func (c Code) Class() uint8 { return uint8(c) >> 5 }

// Detail returns the code detail.
func (c Code) Detail() uint8 { return uint8(c) & 0x1f }

// String renders the code in the CoAP class.detail notation (e.g. 2.05).
func (c Code) String() string {
	switch c {
	case GET:
		return "GET"
	case POST:
		return "POST"
	case PUT:
		return "PUT"
	case DELETE:
		return "DELETE"
	case CodeEmpty:
		return "EMPTY"
	default:
		return fmt.Sprintf("%d.%02d", c.Class(), c.Detail())
	}
}

// IsRequest reports whether the code is a method code.
func (c Code) IsRequest() bool { return c.Class() == 0 && c != CodeEmpty }

// Option numbers used by this implementation.
const (
	OptionUriPath       uint16 = 11
	OptionContentFormat uint16 = 12
)

// Option is one CoAP option instance.
type Option struct {
	Number uint16
	Value  []byte
}

// Message is a CoAP message.
type Message struct {
	Type      Type
	Code      Code
	MessageID uint16
	Token     []byte
	Options   []Option
	Payload   []byte
}

// Version is the protocol version encoded in every message.
const Version = 1

// Errors returned by Decode.
var (
	ErrTruncated  = errors.New("coap: truncated message")
	ErrBadVersion = errors.New("coap: unsupported version")
	ErrBadToken   = errors.New("coap: token length > 8")
	ErrBadOption  = errors.New("coap: malformed option")
)

// PathOptions builds the Uri-Path options of a request path, one per
// segment. A sender with a fixed set of paths builds each once and shares
// the slice read-only between its messages: AppendTo never mutates
// options that are already in number order.
func PathOptions(path ...string) []Option {
	var opts []Option
	for _, seg := range path {
		opts = append(opts, Option{Number: OptionUriPath, Value: []byte(seg)})
	}
	return opts
}

// PathSegment returns the message's sole Uri-Path segment without
// copying, and whether the message has exactly one segment (every
// Table I message does). Callers must not retain or mutate the slice;
// it aliases the option value. This is the transport's allocation-free
// counting fast path — Path() allocates on every call.
func (m Message) PathSegment() ([]byte, bool) {
	var seg []byte
	n := 0
	for _, o := range m.Options {
		if o.Number == OptionUriPath {
			n++
			seg = o.Value
		}
	}
	return seg, n == 1
}

// Path returns the Uri-Path of the message joined with '/'.
func (m Message) Path() string {
	var segs []string
	for _, o := range m.Options {
		if o.Number == OptionUriPath {
			segs = append(segs, string(o.Value))
		}
	}
	return strings.Join(segs, "/")
}

// AppendTo serialises the message to the RFC 7252 wire format, appending to
// dst and returning the extended buffer. With a pre-sized dst it performs
// no allocations when the options are already in ascending number order —
// the order every encoder in this module produces.
//
//harplint:hotpath
func (m Message) AppendTo(dst []byte) ([]byte, error) {
	if len(m.Token) > 8 {
		return nil, ErrBadToken
	}
	buf := append(dst, byte(Version<<6)|byte(m.Type)<<4|byte(len(m.Token)))
	buf = append(buf, byte(m.Code))
	buf = binary.BigEndian.AppendUint16(buf, m.MessageID)
	buf = append(buf, m.Token...)

	opts := m.Options
	if !optionsSorted(opts) {
		// Cold path: out-of-order options are copied and insertion-sorted
		// (stable) so the caller's slice is left untouched.
		sorted := make([]Option, len(opts)) //harplint:allow hotpath out-of-order options are a cold path
		copy(sorted, opts)
		sortOptions(sorted)
		opts = sorted
	}
	prev := uint16(0)
	for _, o := range opts {
		delta := o.Number - prev
		prev = o.Number
		var err error
		buf, err = appendOptionHeader(buf, delta, len(o.Value))
		if err != nil {
			return nil, err
		}
		buf = append(buf, o.Value...)
	}
	if len(m.Payload) > 0 {
		buf = append(buf, 0xFF)
		buf = append(buf, m.Payload...)
	}
	return buf, nil
}

// optionsSorted reports whether the options are already in ascending
// number order.
func optionsSorted(opts []Option) bool {
	for i := 1; i < len(opts); i++ {
		if opts[i].Number < opts[i-1].Number {
			return false
		}
	}
	return true
}

// sortOptions stable-sorts options by number (insertion sort: option lists
// are short, and it avoids sort.SliceStable's closure allocation).
func sortOptions(opts []Option) {
	for i := 1; i < len(opts); i++ {
		for j := i; j > 0 && opts[j].Number < opts[j-1].Number; j-- {
			opts[j], opts[j-1] = opts[j-1], opts[j]
		}
	}
}

// appendOptionHeader writes the option delta/length nibbles with the
// extended encodings of RFC 7252 §3.1.
func appendOptionHeader(buf []byte, delta uint16, length int) ([]byte, error) {
	if length > 0xFFFF {
		return nil, ErrBadOption
	}
	dn := nibbleField(uint32(delta))
	ln := nibbleField(uint32(length))
	buf = append(buf, dn<<4|ln)
	buf = appendNibbleExt(buf, dn, uint32(delta))
	buf = appendNibbleExt(buf, ln, uint32(length))
	return buf, nil
}

// nibbleField returns the 4-bit field for a delta or length.
func nibbleField(v uint32) byte {
	switch {
	case v < 13:
		return byte(v)
	case v < 269:
		return 13
	default:
		return 14
	}
}

// appendNibbleExt appends the extension bytes matching a nibble field.
func appendNibbleExt(buf []byte, n byte, v uint32) []byte {
	switch n {
	case 13:
		return append(buf, byte(v-13))
	case 14:
		return binary.BigEndian.AppendUint16(buf, uint16(v-269))
	}
	return buf
}

// Decode parses a wire-format message into a Message that owns its bytes:
// the caller may reuse or overwrite data afterwards. It is ParseBorrowed
// followed by Clone, so the two forms cannot drift; callers that only look
// at the message while data stays untouched (the bus's delivery path) use
// ParseBorrowed and skip the copy.
func Decode(data []byte) (Message, error) {
	var scratch [4]Option // on the stack; enough for any message this module encodes
	m, err := ParseBorrowed(data, scratch[:0])
	if err != nil {
		return Message{}, err
	}
	return m.Clone(), nil
}

// Clone returns a copy of the message that shares no storage with it:
// token, option values and payload move into one fresh buffer (each
// capacity-capped, so appending to one cannot reach the next). Empty
// fields stay nil.
func (m Message) Clone() Message {
	n := len(m.Token) + len(m.Payload)
	for _, o := range m.Options {
		n += len(o.Value)
	}
	var buf []byte
	if n > 0 {
		buf = make([]byte, 0, n)
	}
	own := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		start := len(buf)
		buf = append(buf, b...)
		return buf[start:len(buf):len(buf)]
	}
	c := Message{Type: m.Type, Code: m.Code, MessageID: m.MessageID}
	c.Token = own(m.Token)
	c.Payload = own(m.Payload)
	if len(m.Options) > 0 {
		c.Options = make([]Option, len(m.Options))
		for i, o := range m.Options {
			c.Options[i] = Option{Number: o.Number, Value: own(o.Value)}
		}
	}
	return c
}

// ParseBorrowed parses a wire-format message without copying: the
// returned message's Token, option values and Payload alias data, and its
// Options are appended to opts[:0] (a caller that parses repeatedly passes
// the previous message's Options back and allocates nothing once warm).
// The message is valid only while data and opts are left untouched; a
// caller that keeps any of it uses Decode or Clone.
//
//harplint:hotpath
func ParseBorrowed(data []byte, opts []Option) (Message, error) {
	if len(data) < 4 {
		return Message{}, ErrTruncated
	}
	if data[0]>>6 != Version {
		return Message{}, ErrBadVersion
	}
	var m Message
	options := opts[:0]
	m.Type = Type((data[0] >> 4) & 0x3)
	tkl := int(data[0] & 0x0F)
	if tkl > 8 {
		return Message{}, ErrBadToken
	}
	m.Code = Code(data[1])
	m.MessageID = binary.BigEndian.Uint16(data[2:4])
	rest := data[4:]
	if len(rest) < tkl {
		return Message{}, ErrTruncated
	}
	if tkl > 0 {
		m.Token = rest[:tkl:tkl]
	}
	rest = rest[tkl:]

	prev := uint16(0)
	for len(rest) > 0 {
		if rest[0] == 0xFF {
			if len(rest) == 1 {
				return Message{}, ErrTruncated // payload marker with no payload
			}
			m.Payload, m.Options = rest[1:], options
			return m, nil
		}
		dn := rest[0] >> 4
		ln := rest[0] & 0x0F
		rest = rest[1:]
		delta, r, err := readExtended(dn, rest)
		if err != nil {
			return Message{}, err
		}
		rest = r
		length, r, err := readExtended(ln, rest)
		if err != nil {
			return Message{}, err
		}
		rest = r
		if len(rest) < int(length) {
			return Message{}, ErrTruncated
		}
		prev += uint16(delta)
		var value []byte // an empty value stays nil, as in the owning form
		if length > 0 {
			value = rest[:length:length]
		}
		options = append(options, Option{Number: prev, Value: value})
		rest = rest[length:]
	}
	m.Options = options
	return m, nil
}

// readExtended resolves a 4-bit delta/length nibble plus extension bytes.
func readExtended(n byte, rest []byte) (uint32, []byte, error) {
	switch n {
	case 15:
		return 0, nil, ErrBadOption // reserved for payload marker
	case 14:
		if len(rest) < 2 {
			return 0, nil, ErrTruncated
		}
		return uint32(binary.BigEndian.Uint16(rest[:2])) + 269, rest[2:], nil
	case 13:
		if len(rest) < 1 {
			return 0, nil, ErrTruncated
		}
		return uint32(rest[0]) + 13, rest[1:], nil
	default:
		return uint32(n), rest, nil
	}
}
