package wire

import "fmt"

// PlaneStats is one network plane's traffic totals and health: a plane is
// healthy when none of its (peer, plane) lanes is currently marked down
// by the lane-health tracker (see health.go).
type PlaneStats struct {
	Plane       int   `json:"plane"`
	TxDatagrams int64 `json:"tx_datagrams"`
	TxBytes     int64 `json:"tx_bytes"`
	RxDatagrams int64 `json:"rx_datagrams"`
	RxBytes     int64 `json:"rx_bytes"`
	LanesDown   int   `json:"lanes_down"`
	Healthy     bool  `json:"healthy"`
}

// Stats is a point-in-time snapshot of a transport's traffic and
// reliability accounting — the typed view of the `wire.tx.*` /
// `wire.rx.*` registry counters, so status surfaces (phoenix-node's
// status line, the opshttp /statusz endpoint, phoenix-admin's cluster
// table) read one struct instead of naming counters ad hoc.
type Stats struct {
	TxMsgs      int64 `json:"tx_msgs"`
	TxDatagrams int64 `json:"tx_datagrams"`
	TxBytes     int64 `json:"tx_bytes"`
	TxAcks      int64 `json:"tx_acks"`
	TxFrags     int64 `json:"tx_frags"`
	Retransmits int64 `json:"retransmits"`
	PeerFaults  int64 `json:"peer_faults"`

	RxDatagrams int64 `json:"rx_datagrams"`
	RxBytes     int64 `json:"rx_bytes"`
	RxDelivered int64 `json:"rx_delivered"`
	RxAcks      int64 `json:"rx_acks"`
	RxFrags     int64 `json:"rx_frags"`
	DupDrops    int64 `json:"dup_drops"`

	// Failovers counts AnyNIC sends routed around a down lane; LanesDown
	// is the number of (peer, plane) lanes currently marked down.
	Failovers int64 `json:"failovers"`
	LanesDown int   `json:"lanes_down"`

	// Errors folds every tx drop (no route, encode, write, overflow,
	// oversize) and rx error (read, decode, out-of-window,
	// dropped-while-down, no-handler, fragment mismatch/timeout) into one
	// attention signal; the per-cause counters stay in the registry for
	// /metrics.
	Errors int64 `json:"errors"`

	Planes []PlaneStats `json:"planes"`
}

// Stats snapshots the transport's registry counters. It is safe from any
// goroutine and cheap enough to call on every status-line tick or HTTP
// scrape.
func (t *Transport) Stats() Stats {
	c := func(name string) int64 { return int64(t.reg.Counter(name).Value()) }
	s := Stats{
		TxMsgs:      c("wire.tx.msgs"),
		TxDatagrams: c("wire.tx.datagrams"),
		TxBytes:     c("wire.tx.bytes"),
		TxAcks:      c("wire.tx.acks"),
		TxFrags:     c("wire.tx.frags"),
		Retransmits: c("wire.tx.retransmits"),
		PeerFaults:  c("wire.tx.peer_faults"),
		RxDatagrams: c("wire.rx.datagrams"),
		RxBytes:     c("wire.rx.bytes"),
		RxDelivered: c("wire.rx.delivered"),
		RxAcks:      c("wire.rx.acks"),
		RxFrags:     c("wire.rx.frags"),
		DupDrops:    c("wire.rx.dup_drops"),
		Failovers:   c("wire.tx.failovers"),
	}
	for _, name := range []string{
		"wire.tx.drop.noroute", "wire.tx.drop.encode", "wire.tx.drop.write",
		"wire.tx.drop.overflow", "wire.tx.drop.oversize",
		"wire.rx.read_errors", "wire.rx.decode_errors", "wire.rx.out_of_window", "wire.rx.dropped",
		"wire.rx.no_handler", "wire.rx.frag_mismatch", "wire.rx.frag_timeouts",
	} {
		s.Errors += c(name)
	}
	s.Planes = make([]PlaneStats, len(t.conns))
	for p := range s.Planes {
		s.Planes[p] = PlaneStats{
			Plane:       p,
			TxDatagrams: c(fmt.Sprintf("wire.tx.datagrams.plane%d", p)),
			TxBytes:     c(fmt.Sprintf("wire.tx.bytes.plane%d", p)),
			RxDatagrams: c(fmt.Sprintf("wire.rx.datagrams.plane%d", p)),
			RxBytes:     c(fmt.Sprintf("wire.rx.bytes.plane%d", p)),
			Healthy:     true,
		}
	}
	t.healthMu.Lock()
	for key, h := range t.health {
		if h.down && key.plane >= 0 && key.plane < len(s.Planes) {
			s.LanesDown++
			s.Planes[key.plane].LanesDown++
			s.Planes[key.plane].Healthy = false
		}
	}
	t.healthMu.Unlock()
	return s
}

// Book returns the address book currently attached to the transport (nil
// before SetBook on the ephemeral path).
func (t *Transport) Book() *Book {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.book
}
