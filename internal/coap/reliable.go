// Confirmable-message reliability (RFC 7252 §4.2–§4.5), carrier-agnostic.
// This file holds the pure state machines — the sender's retransmission
// exchange and the receiver's Message-ID dedup cache — parameterised over
// an abstract time axis (the transports measure it in slots for the
// virtual-time bus and in seconds for the live one). The transports own
// scheduling and I/O; everything that must be correct under loss,
// duplication and reordering lives here, where it can be unit-tested and
// fuzzed without a clock.
package coap

// Reliability transmission parameters (RFC 7252 §4.8), in abstract time
// units. The defaults there are ACK_TIMEOUT = 2 s, ACK_RANDOM_FACTOR = 1.5,
// MAX_RETRANSMIT = 4; the virtual-time transport scales them to slots.
type ReliabilityParams struct {
	// AckTimeout is the base retransmission timeout of the first wait.
	AckTimeout float64
	// RandomFactor widens the initial timeout to a uniform draw from
	// [AckTimeout, AckTimeout*RandomFactor] (§4.2), decorrelating the
	// retransmissions of concurrent exchanges.
	RandomFactor float64
	// MaxRetransmit bounds the number of retransmissions (not counting the
	// initial transmission) before the sender gives up.
	MaxRetransmit int
}

// DefaultReliability returns the RFC 7252 defaults with AckTimeout
// expressed in the given unit (e.g. slots per slotframe for the bus).
func DefaultReliability(ackTimeout float64) ReliabilityParams {
	return ReliabilityParams{AckTimeout: ackTimeout, RandomFactor: 1.5, MaxRetransmit: 4}
}

// ExchangeLifetime is the window a receiver must remember a Message-ID to
// recognise retransmissions and duplicates of it (§4.8.2's EXCHANGE_LIFETIME,
// simplified): the worst-case span of one exchange — every retransmission
// doubling the widened initial timeout — plus one more timeout of slack for
// copies still in flight.
func (p ReliabilityParams) ExchangeLifetime() float64 {
	total := 0.0
	timeout := p.AckTimeout * p.RandomFactor
	for i := 0; i <= p.MaxRetransmit; i++ {
		total += timeout
		timeout *= 2
	}
	return total + p.AckTimeout
}

// Exchange is the sender side of one confirmable exchange: a CON message
// awaiting its ACK, retransmitted with binary exponential backoff. The
// caller transmits the message, schedules a timer for NextAt, and on expiry
// calls Retransmit; Ack resolves the exchange when the matching
// acknowledgement arrives.
type Exchange struct {
	// MessageID is the CON message's ID; the ACK must echo it (§4.4).
	MessageID uint16
	// Attempts counts transmissions so far (the initial send included).
	Attempts int
	// NextAt is the absolute time the current retransmission timer expires.
	NextAt float64

	timeout  float64 // current backoff interval
	maxRetx  int
	resolved bool
	gaveUp   bool
}

// NewExchange starts an exchange at time now. jitter in [0,1) selects the
// initial timeout within [AckTimeout, AckTimeout*RandomFactor]; the caller
// draws it from its own seeded stream so replay stays exact.
func (p ReliabilityParams) NewExchange(messageID uint16, now, jitter float64) *Exchange {
	timeout := p.AckTimeout
	if p.RandomFactor > 1 {
		timeout += p.AckTimeout * (p.RandomFactor - 1) * jitter
	}
	return &Exchange{
		MessageID: messageID,
		Attempts:  1,
		NextAt:    now + timeout,
		timeout:   timeout,
		maxRetx:   p.MaxRetransmit,
	}
}

// Ack resolves the exchange if the acknowledged Message-ID matches.
// Returns true when this ACK settled the exchange; duplicate or stale ACKs
// return false and change nothing.
func (e *Exchange) Ack(messageID uint16) bool {
	if e.resolved || e.gaveUp || messageID != e.MessageID {
		return false
	}
	e.resolved = true
	return true
}

// Retransmit advances the state machine at a timer expiry. It returns true
// when the message must be transmitted again (the timeout has doubled and
// NextAt holds the new expiry), false when the exchange is over — already
// resolved, or retransmissions exhausted (GaveUp then reports true).
func (e *Exchange) Retransmit(now float64) bool {
	if e.resolved || e.gaveUp {
		return false
	}
	if e.Attempts > e.maxRetx {
		e.gaveUp = true
		return false
	}
	e.Attempts++
	e.timeout *= 2
	e.NextAt = now + e.timeout
	return true
}

// Done reports whether the exchange holds no pending retransmission.
func (e *Exchange) Done() bool { return e.resolved || e.gaveUp }

// DedupCache is the receiver side: it remembers (peer, Message-ID) pairs
// for ExchangeLifetime so retransmissions and duplicated deliveries of a
// confirmable message are acknowledged but not re-applied (§4.5's
// deduplication requirement). Peers are opaque to this package; the
// transports key by node ID.
type DedupCache struct {
	lifetime float64
	seen     map[dedupKey]float64 // first-seen time
}

type dedupKey struct {
	peer uint64
	mid  uint16
}

// NewDedupCache builds a cache whose entries expire after lifetime.
func NewDedupCache(lifetime float64) *DedupCache {
	return &DedupCache{lifetime: lifetime, seen: make(map[dedupKey]float64)}
}

// Observe records a confirmable message's (peer, Message-ID) at time now
// and reports whether it is a duplicate — already observed within the
// lifetime window. Expired entries are pruned as a side effect, so the
// cache is bounded by the number of exchanges alive in one window.
func (c *DedupCache) Observe(peer uint64, mid uint16, now float64) bool {
	for k, at := range c.seen {
		if now-at > c.lifetime {
			delete(c.seen, k)
		}
	}
	k := dedupKey{peer: peer, mid: mid}
	if at, ok := c.seen[k]; ok && now-at <= c.lifetime {
		return true
	}
	c.seen[k] = now
	return false
}

// Len returns the number of live entries (for tests and accounting).
func (c *DedupCache) Len() int { return len(c.seen) }

// EmptyAck builds the empty acknowledgement for a confirmable message
// (§4.2): type ACK, code 0.00, echoing the Message-ID, no token or payload.
func EmptyAck(messageID uint16) Message {
	return Message{Type: Acknowledgement, Code: CodeEmpty, MessageID: messageID}
}
