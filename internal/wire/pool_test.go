package wire

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// TestBidirectionalTraffic runs request/response pairs in both directions
// — the path where acks ride return data — and checks nothing is lost or
// mangled and that the replies did carry acks.
func TestBidirectionalTraffic(t *testing.T) {
	a, b := pair(t, 1)
	gotB := make(chan types.Message, 64)
	gotA := make(chan types.Message, 64)
	b.Register(recvAddr(), func(m types.Message) {
		gotB <- m
		_ = b.Send(types.Message{
			From: recvAddr(), To: types.Addr{Node: 0, Service: "cli"},
			NIC: 0, Type: "echo", Payload: m.Payload,
		})
	})
	a.Register(types.Addr{Node: 0, Service: "cli"}, func(m types.Message) { gotA <- m })

	const n = 16
	for i := 0; i < n; i++ {
		err := a.Send(types.Message{
			From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
			NIC: 0, Type: "req",
			Payload: types.ResourceStats{Node: types.NodeID(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		await(t, gotB)
		await(t, gotA)
	}
	if v := b.Metrics().Counter("wire.tx.ack_piggybacked").Value(); v == 0 {
		t.Error("no ack rode a reply")
	}
}

// TestPooledBuffersKeepPayloadsIntact drives a burst through a lane that
// loses every first transmission, so retransmissions copy out of held
// frame buffers while new sends draw buffers from the same pools: every
// payload must still arrive intact, exactly once.
func TestPooledBuffersKeepPayloadsIntact(t *testing.T) {
	a, b := pair(t, 1, WithRetransmit(20*time.Millisecond, 8), WithOutboundFilter(dropFirstTransmissions()))
	got := make(chan types.Message, 64)
	b.Register(recvAddr(), func(m types.Message) { got <- m })
	const n = 32
	for i := 0; i < n; i++ {
		if err := a.Send(types.Message{
			From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
			NIC: 0, Type: "plain",
			Payload: types.ResourceStats{Node: types.NodeID(i), MemPct: float64(i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[types.NodeID]bool)
	for i := 0; i < n; i++ {
		rs, ok := await(t, got).Payload.(types.ResourceStats)
		if !ok || rs.MemPct != float64(rs.Node) || seen[rs.Node] {
			t.Fatalf("payload mangled or repeated: %#v", rs)
		}
		seen[rs.Node] = true
	}
}

// TestFilterHeldDatagramsAreNotReused pins the rule that keeps flush
// buffers out of the pool while an outbound filter is installed: a filter
// that holds datagrams and transmits them later must find them unchanged.
func TestFilterHeldDatagramsAreNotReused(t *testing.T) {
	var changed atomic.Int64
	var wg sync.WaitGroup
	a, b := pair(t, 1, WithOutboundFilter(func(peer types.NodeID, plane int, data []byte, transmit func()) {
		snapshot := append([]byte(nil), data...)
		wg.Add(1)
		time.AfterFunc(2*time.Millisecond, func() {
			defer wg.Done()
			if !bytes.Equal(snapshot, data) {
				changed.Add(1)
			}
			transmit()
		})
	}))
	t.Cleanup(wg.Wait)
	got := make(chan types.Message, 64)
	b.Register(recvAddr(), func(m types.Message) { got <- m })
	const n = 32
	for i := 0; i < n; i++ {
		if err := a.Send(ping(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		await(t, got)
	}
	if c := changed.Load(); c != 0 {
		t.Fatalf("%d held datagrams were overwritten before the filter sent them", c)
	}
}
