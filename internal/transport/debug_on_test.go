//go:build harpdebug

package transport

import (
	"bytes"
	"testing"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/topology"
)

// keeper breaks the Handler contract on purpose: it keeps the borrowed
// payload next to a proper copy.
type keeper struct {
	borrowed []byte
	owned    coap.Message
}

func (k *keeper) Handle(_ topology.NodeID, msg coap.Message) {
	k.borrowed = msg.Payload
	k.owned = msg.Clone()
}

// TestBorrowedMessagePoisonedOnRelease: under harpdebug the wire buffer is
// overwritten the moment its envelope is released, so a handler that kept
// a slice of a delivered message reads poison as soon as the delivery
// returns — not whatever the envelope's next message happens to be, much
// later. A Clone is untouched.
func TestBorrowedMessagePoisonedOnRelease(t *testing.T) {
	bus, err := NewBus(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := &keeper{}
	bus.Register(1, nopHandler{})
	bus.Register(2, k)
	msg := coap.Message{Type: coap.NonConfirmable, Code: coap.POST, MessageID: 1, Options: coap.PathOptions("intf")}
	msg.Payload = []byte("payload")
	if err := bus.Send(1, 2, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Run(); err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat([]byte{0xA5}, len(msg.Payload)); !bytes.Equal(k.borrowed, want) {
		t.Errorf("kept borrowed payload reads %q after release, want poison", k.borrowed)
	}
	if string(k.owned.Payload) != "payload" || k.owned.Path() != "intf" {
		t.Errorf("cloned message damaged: %+v", k.owned)
	}
}
