//go:build !race

package wire

import (
	"testing"

	"repro/internal/types"
)

// The allocation fence is excluded from race builds: the race runtime
// adds bookkeeping allocations that are not the code's.

// sendAllocsPerMessage is the allocation fence of the steady-state path:
// one message over a warm loopback lane, Send to delivery, counted
// process wide — both transports, their reader goroutines and the acks.
const sendAllocsPerMessage = 9

func TestSendAllocsPerMessage(t *testing.T) {
	a, b := pair(t, 1)
	got := make(chan types.Message, 1)
	b.Register(recvAddr(), func(m types.Message) { got <- m })
	msg := ping(0)
	send := func() {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	for i := 0; i < 200; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(2000, send)
	t.Logf("%.0f allocs per message", allocs)
	if allocs > sendAllocsPerMessage {
		t.Errorf("%.0f allocs per message, fence is %d", allocs, sendAllocsPerMessage)
	}
}
