package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/heartbeat"
	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/wire"
)

// The wire benchmark measures what the binary codec bought over the gob
// baseline, in two tiers:
//
//   - codec tier: encode+decode round trips of a heartbeat-sized message
//     in a tight loop, binary versus gob, with steady-state allocation
//     counts for the hot paths (AppendMessage into a warm buffer,
//     DecodeWire into a reused value);
//   - transport tier: real loopback UDP clusters of 4/16/64 nodes, every
//     node streaming heartbeats at node 0, measuring delivered msgs/sec,
//     one-way p50/p99 latency, and process-wide allocations per message —
//     binary versus gob.
//
// phoenix-bench -exp wire renders the table and writes BENCH_wire.json so
// the numbers are pinned per PR.

// CodecRow is one codec-tier measurement.
type CodecRow struct {
	Codec          string  `json:"codec"`
	BodyBytes      int     `json:"body_bytes"`
	EncodeNsOp     float64 `json:"encode_ns_op"`
	DecodeNsOp     float64 `json:"decode_ns_op"`
	MsgsPerSec     float64 `json:"msgs_per_sec"`
	EncodeAllocsOp float64 `json:"encode_allocs_op"`
	DecodeAllocsOp float64 `json:"decode_allocs_op"`
}

// TransportRow is one transport-tier measurement: a cluster of Nodes
// transports on loopback UDP, all streaming heartbeats to node 0.
type TransportRow struct {
	Nodes        int     `json:"nodes"`
	Codec        string  `json:"codec"`
	Msgs         int     `json:"msgs"`
	MsgsPerSec   float64 `json:"msgs_per_sec"`
	P50Us        float64 `json:"p50_us"`
	P99Us        float64 `json:"p99_us"`
	AllocsPerMsg float64 `json:"allocs_per_msg"`
	Datagrams    uint64  `json:"datagrams"`
}

// WireBench is the full report, serialised as BENCH_wire.json.
type WireBench struct {
	Go        string         `json:"go"`
	Quick     bool           `json:"quick"`
	Codec     []CodecRow     `json:"codec"`
	Transport []TransportRow `json:"transport"`
	// SpeedupBinaryVsGob is the codec-tier msgs/sec ratio for the
	// heartbeat-sized message — the headline number.
	SpeedupBinaryVsGob float64 `json:"speedup_binary_vs_gob"`
}

// benchMsg is the canonical hot-path message: one watch-daemon heartbeat.
func benchMsg() types.Message {
	return types.Message{
		From: types.Addr{Node: 3, Service: types.SvcWD},
		To:   types.Addr{Node: 0, Service: types.SvcGSD},
		NIC:  0, Type: heartbeat.MsgHeartbeat,
		Payload: heartbeat.Heartbeat{
			Node: 3, Seq: 99, Interval: 250 * time.Millisecond,
			Boot: time.Unix(1125532000, 0),
		},
	}
}

// RunWireBench runs both tiers. Quick shrinks the per-node message count,
// not the cluster sizes — the 4/16/64 sweep is the point of the table.
func RunWireBench(quick bool) (*WireBench, error) {
	defer codec.ForceGob(false)
	b := &WireBench{Go: runtime.Version(), Quick: quick}

	for _, useGob := range []bool{false, true} {
		b.Codec = append(b.Codec, codecTier(useGob))
	}
	if gobRate := b.Codec[1].MsgsPerSec; gobRate > 0 {
		b.SpeedupBinaryVsGob = b.Codec[0].MsgsPerSec / gobRate
	}

	msgsPerNode := 300
	if quick {
		msgsPerNode = 100
	}
	for _, nodes := range []int{4, 16, 64} {
		for _, useGob := range []bool{false, true} {
			row, err := transportTier(nodes, msgsPerNode, useGob)
			if err != nil {
				return nil, fmt.Errorf("wire bench %d nodes %s: %w", nodes, row.Codec, err)
			}
			b.Transport = append(b.Transport, row)
		}
	}
	return b, nil
}

// codecTier measures encode+decode round trips of the heartbeat message
// in a tight loop under the selected codec.
func codecTier(useGob bool) CodecRow {
	codec.ForceGob(useGob)
	name := "binary"
	if useGob {
		name = "gob"
	}
	msg := benchMsg()
	msg.Sent = time.Unix(1125532800, 0)
	buf := make([]byte, 0, 1024)
	body, err := codec.AppendMessage(buf, msg)
	if err != nil {
		panic(err)
	}

	const iters = 20000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := codec.AppendMessage(buf[:0], msg); err != nil {
			panic(err)
		}
	}
	encNs := float64(time.Since(start).Nanoseconds()) / iters

	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := codec.DecodeMessage(body); err != nil {
			panic(err)
		}
	}
	decNs := float64(time.Since(start).Nanoseconds()) / iters

	row := CodecRow{
		Codec:      name,
		BodyBytes:  len(body),
		EncodeNsOp: encNs,
		DecodeNsOp: decNs,
		MsgsPerSec: 1e9 / (encNs + decNs),
	}
	row.EncodeAllocsOp = testing.AllocsPerRun(200, func() {
		if _, err := codec.AppendMessage(buf[:0], msg); err != nil {
			panic(err)
		}
	})
	// Steady-state decode: the binary path decodes into a reused payload
	// value; gob has no such path, so measure its full message decode.
	if useGob {
		row.DecodeAllocsOp = testing.AllocsPerRun(200, func() {
			if _, err := codec.DecodeMessage(body); err != nil {
				panic(err)
			}
		})
	} else {
		hb := msg.Payload.(heartbeat.Heartbeat)
		pb := hb.AppendWire(nil)
		var into heartbeat.Heartbeat
		row.DecodeAllocsOp = testing.AllocsPerRun(200, func() {
			if err := into.DecodeWire(pb); err != nil {
				panic(err)
			}
		})
	}
	return row
}

// transportTier boots nodes loopback transports sharing one address book,
// streams msgsPerNode heartbeats from every non-zero node to node 0, and
// measures delivery throughput and one-way latency at the receiver.
func transportTier(nodes, msgsPerNode int, useGob bool) (TransportRow, error) {
	row := TransportRow{Nodes: nodes, Codec: "binary", Msgs: (nodes - 1) * msgsPerNode}
	if useGob {
		row.Codec = "gob"
	}
	codec.ForceGob(useGob)
	defer codec.ForceGob(false)

	// A small per-lane window keeps the fan-in inside node 0's socket
	// receive buffer, which holds about 256 heartbeat datagrams at Linux's
	// default 208 KiB rmem. At the default 64-frame window, 15 senders can
	// have 960 frames in flight at node 0: the socket drops the overflow
	// (UDP RcvbufErrors) and repairing it by retransmission cuts 16-node
	// throughput by 10-25x. 8 in flight per lane fits 4 and 16 nodes.
	opts := []wire.Option{wire.WithPlanes(1), wire.WithWindow(8)}
	book := wire.NewBook()
	trs := make([]*wire.Transport, nodes)
	for i := range trs {
		tr, err := wire.New(types.NodeID(i), nil,
			append([]wire.Option{wire.WithMetrics(metrics.NewRegistry())}, opts...)...)
		if err != nil {
			return row, err
		}
		defer tr.Close()
		trs[i] = tr
		for p, ep := range tr.Endpoints() {
			if err := book.Add(tr.Node(), p, ep); err != nil {
				return row, err
			}
		}
	}
	for _, tr := range trs {
		tr.SetBook(book)
	}

	total := row.Msgs
	lats := make([]time.Duration, total)
	var received atomic.Int64
	done := make(chan struct{})
	dst := types.Addr{Node: 0, Service: types.SvcGSD}
	trs[0].Register(dst, func(m types.Message) {
		lat := time.Since(m.Sent)
		if n := received.Add(1); n <= int64(total) {
			lats[n-1] = lat
			if n == int64(total) {
				close(done)
			}
		}
	})

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 1; i < nodes; i++ {
		go func(src types.NodeID) {
			msg := types.Message{
				From: types.Addr{Node: src, Service: types.SvcWD}, To: dst,
				NIC: 0, Type: heartbeat.MsgHeartbeat,
			}
			for j := 0; j < msgsPerNode; j++ {
				msg.Payload = heartbeat.Heartbeat{Node: src, Seq: uint64(j)}
				// A full send queue is backpressure, not failure: yield
				// and retry until the window drains.
				for trs[src].Send(msg) != nil {
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(types.NodeID(i))
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return row, fmt.Errorf("only %d/%d messages delivered within 60s", received.Load(), total)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	var datagrams uint64
	for _, tr := range trs {
		datagrams += uint64(tr.Metrics().Counter("wire.tx.datagrams").Value())
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx].Nanoseconds()) / 1e3
	}
	row.MsgsPerSec = float64(total) / elapsed.Seconds()
	row.P50Us, row.P99Us = pct(0.50), pct(0.99)
	row.AllocsPerMsg = float64(m1.Mallocs-m0.Mallocs) / float64(total)
	row.Datagrams = datagrams
	return row, nil
}

// Render tabulates both tiers in the bench's usual fixed-width style.
func (b *WireBench) Render() string {
	var sb strings.Builder
	sb.WriteString("Wire codec (heartbeat message, encode+decode round trip)\n")
	fmt.Fprintf(&sb, "  %-8s %10s %12s %12s %14s %10s %10s\n",
		"codec", "body B", "enc ns/op", "dec ns/op", "msgs/sec", "enc allocs", "dec allocs")
	for _, r := range b.Codec {
		fmt.Fprintf(&sb, "  %-8s %10d %12.0f %12.0f %14.0f %10.1f %10.1f\n",
			r.Codec, r.BodyBytes, r.EncodeNsOp, r.DecodeNsOp, r.MsgsPerSec,
			r.EncodeAllocsOp, r.DecodeAllocsOp)
	}
	fmt.Fprintf(&sb, "  binary is %.1fx gob msgs/sec\n\n", b.SpeedupBinaryVsGob)

	sb.WriteString("Wire transport (loopback UDP, all nodes streaming heartbeats to node 0)\n")
	fmt.Fprintf(&sb, "  %-6s %-8s %7s %12s %10s %10s %11s %10s\n",
		"nodes", "codec", "msgs", "msgs/sec", "p50 us", "p99 us", "allocs/msg", "datagrams")
	for _, r := range b.Transport {
		fmt.Fprintf(&sb, "  %-6d %-8s %7d %12.0f %10.0f %10.0f %11.1f %10d\n",
			r.Nodes, r.Codec, r.Msgs, r.MsgsPerSec,
			r.P50Us, r.P99Us, r.AllocsPerMsg, r.Datagrams)
	}
	return sb.String()
}

// WriteJSON writes the report where the PR gate reads it.
func (b *WireBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
