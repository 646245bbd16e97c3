package wire

import (
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/types"
)

// pair binds two transports on ephemeral loopback ports and cross-wires
// their address books.
func pair(t *testing.T, planes int, opts ...Option) (*Transport, *Transport) {
	t.Helper()
	trs := make([]*Transport, 2)
	book := NewBook()
	for i := range trs {
		tr, err := New(types.NodeID(i), nil,
			append([]Option{WithPlanes(planes), WithMetrics(metrics.NewRegistry())}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		trs[i] = tr
		for p, ep := range tr.Endpoints() {
			if err := book.Add(tr.Node(), p, ep); err != nil {
				t.Fatal(err)
			}
		}
	}
	trs[0].SetBook(book)
	trs[1].SetBook(book)
	return trs[0], trs[1]
}

func recvAddr() types.Addr { return types.Addr{Node: 1, Service: "svc"} }

func await(t *testing.T, ch <-chan types.Message) types.Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no message within 5s")
		return types.Message{}
	}
}

func TestTransportDeliversOnEachPlane(t *testing.T) {
	a, b := pair(t, 2)
	got := make(chan types.Message, 4)
	b.Register(recvAddr(), func(m types.Message) { got <- m })

	payload := types.ResourceStats{Node: 0, CPUPct: 42.5}
	for plane := 0; plane < 2; plane++ {
		err := a.Send(types.Message{
			From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
			NIC: plane, Type: "ping", Payload: payload,
		})
		if err != nil {
			t.Fatalf("send plane %d: %v", plane, err)
		}
		m := await(t, got)
		if m.NIC != plane {
			t.Fatalf("received on NIC %d, want %d", m.NIC, plane)
		}
		if m.Type != "ping" || m.From.Service != "cli" {
			t.Fatalf("mangled message: %+v", m)
		}
		if rs, ok := m.Payload.(types.ResourceStats); !ok || rs.CPUPct != 42.5 {
			t.Fatalf("payload did not survive the wire: %#v", m.Payload)
		}
	}
	for plane := 0; plane < 2; plane++ {
		for dir, reg := range map[string]*metrics.Registry{"tx": a.Metrics(), "rx": b.Metrics()} {
			name := "wire." + dir + ".datagrams.plane" + string(rune('0'+plane))
			if reg.Counter(name).Value() == 0 {
				t.Errorf("%s is zero", name)
			}
		}
	}
}

func TestTransportAnyNIC(t *testing.T) {
	a, b := pair(t, 2)
	got := make(chan types.Message, 1)
	b.Register(recvAddr(), func(m types.Message) { got <- m })
	err := a.Send(types.Message{
		From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
		NIC: types.AnyNIC, Type: "ping", Payload: nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := await(t, got); m.NIC != 0 {
		t.Fatalf("AnyNIC resolved to plane %d, want 0", m.NIC)
	}
}

func TestTransportSendErrors(t *testing.T) {
	a, _ := pair(t, 2)
	msg := types.Message{From: types.Addr{Node: 0, Service: "cli"}, Type: "ping"}

	msg.To = types.Addr{Node: 9, Service: "svc"}
	msg.NIC = types.AnyNIC
	if err := a.Send(msg); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("send to unknown node: got %v, want ErrUnknownPeer", err)
	}
	msg.NIC = 1
	if err := a.Send(msg); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("send to unknown node on fixed plane: got %v, want ErrUnknownPeer", err)
	}
	if a.Metrics().Counter("wire.tx.drop.noroute").Value() == 0 {
		t.Error("noroute drop not counted")
	}

	msg.To = recvAddr()
	msg.NIC = 7
	if err := a.Send(msg); err == nil || errors.Is(err, ErrUnknownPeer) {
		t.Errorf("send on invalid NIC: got %v", err)
	}

	a.SetNodeUp(0, false)
	msg.NIC = 0
	if err := a.Send(msg); err == nil {
		t.Error("send from downed node succeeded")
	}
	a.SetNodeUp(0, true)
	if err := a.Send(msg); err != nil {
		t.Errorf("send after power-on failed: %v", err)
	}
}

func TestTransportDropsWhenReceiverDownOrUnbound(t *testing.T) {
	a, b := pair(t, 1)
	send := func() {
		if err := a.Send(types.Message{
			From: types.Addr{Node: 0, Service: "cli"}, To: recvAddr(),
			NIC: 0, Type: "ping",
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitCounter := func(name string) {
		t.Helper()
		for start := time.Now(); time.Since(start) < 5*time.Second; time.Sleep(5 * time.Millisecond) {
			if b.Metrics().Counter(name).Value() > 0 {
				return
			}
		}
		t.Fatalf("%s never incremented", name)
	}

	// No handler bound: counted, not delivered.
	send()
	waitCounter("wire.rx.no_handler")

	// Receiver powered off: datagrams drain but are dropped before the
	// reliability layer sees them — no ack leaves a downed node.
	got := make(chan types.Message, 4)
	b.Register(recvAddr(), func(m types.Message) { got <- m })
	b.SetNodeUp(1, false)
	send()
	waitCounter("wire.rx.dropped")
	if len(got) != 0 {
		t.Fatal("message delivered to a downed node")
	}

	b.SetNodeUp(1, true)
	send()
	await(t, got)
}

func TestTransportCloseIsIdempotentAndStopsSends(t *testing.T) {
	a, _ := pair(t, 1)
	a.Close()
	a.Close()
	err := a.Send(types.Message{To: recvAddr(), NIC: 0, Type: "ping"})
	if err == nil {
		t.Error("send on closed transport succeeded")
	}
}

func TestTransportRejectsForeignRegistration(t *testing.T) {
	a, _ := pair(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("registering another node's address did not panic")
		}
	}()
	a.Register(types.Addr{Node: 5, Service: "svc"}, func(types.Message) {})
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("bookless New without WithPlanes accepted")
	}
	if _, err := New(0, nil, WithPlanes(1), WithMTU(16)); err == nil {
		t.Error("MTU below header size accepted")
	}
	if _, err := New(0, nil, WithPlanes(1), WithWindow(0)); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New(0, nil, WithPlanes(1), WithRetransmit(0, 3)); err == nil {
		t.Error("zero RTO accepted")
	}
	if _, err := New(0, nil, WithPlanes(1), WithWindow(maxWindow+1)); err == nil {
		t.Error("window above the maximum accepted")
	}
	book, err := LoopbackBook(1, 1, 19700)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(0, book, WithPlanes(1)); err == nil {
		t.Error("book plus WithPlanes accepted")
	}
	if _, err := New(5, book); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("New for a node missing from the book: got %v, want ErrUnknownPeer", err)
	}
}
