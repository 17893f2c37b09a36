package coap

// NewRequest builds a request with the given method and Uri-Path segments.
func NewRequest(t Type, method Code, messageID uint16, path ...string) Message {
	return Message{Type: t, Code: method, MessageID: messageID, Options: PathOptions(path...)}
}

// Encode serialises the message to the RFC 7252 wire format into a fresh
// buffer.
func (m Message) Encode() ([]byte, error) {
	buf := make([]byte, 0, 8+len(m.Token)+len(m.Payload)+4*len(m.Options))
	return m.AppendTo(buf)
}

// Resolved reports whether the ACK arrived.
func (e *Exchange) Resolved() bool { return e.resolved }

// GaveUp reports whether the sender exhausted MAX_RETRANSMIT without an ACK.
func (e *Exchange) GaveUp() bool { return e.gaveUp }
