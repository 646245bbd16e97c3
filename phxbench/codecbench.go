package main

import (
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/codec"
	"repro/internal/heartbeat"
	"repro/internal/pws"
	"repro/internal/types"
)

// codecKinds are representative messages of every kind a workload puts on
// the wire, shaped like the ones the 4-node clusters exchange. The ack
// kinds (query_ack, get_ack, put_ack, submit_ack) are not registered
// binary payloads and take the codec's gob fallback.
func codecKinds() map[string]types.Message {
	at := time.Unix(1760000000, 123456789)
	row := func(n types.NodeID) types.ResourceStats {
		return types.ResourceStats{Node: n, CPUPct: 41.5, MemPct: 63.25, SwapPct: 1.5, Collected: at}
	}
	client := types.Addr{Node: 4, Service: "call"}
	db := types.Addr{Node: 0, Service: types.SvcDB}
	sched := types.Addr{Node: 0, Service: types.SvcPWS}
	msg := func(from, to types.Addr, typ string, p any) types.Message {
		return types.Message{From: from, To: to, Type: typ, Payload: p, Sent: at}
	}
	return map[string]types.Message{
		"heartbeat": msg(types.Addr{Node: 3, Service: types.SvcWD}, types.Addr{Node: 0, Service: types.SvcGSD},
			heartbeat.MsgHeartbeat, heartbeat.Heartbeat{Node: 3, Seq: 99, Interval: 150 * time.Millisecond, Boot: at}),
		"query": msg(client, db, bulletin.MsgQuery,
			bulletin.QueryReq{Token: 7001, Scope: bulletin.ScopeCluster, MapVersion: 3}),
		"query_ack": msg(db, client, bulletin.MsgResult, bulletin.QueryAck{Token: 7001, Snapshots: []bulletin.Snapshot{
			{Partition: 0, Res: []types.ResourceStats{row(0), row(1)}},
			{Partition: 1, Res: []types.ResourceStats{row(2), row(3)}},
		}, MapVersion: 3}),
		"get_ack": msg(db, client, bulletin.MsgGetAck,
			bulletin.GetAck{Token: 7002, Res: row(1017), Found: true, Primary: true, MapVersion: 3}),
		"put": msg(client, db, bulletin.MsgPut,
			bulletin.PutReq{Kind: "res", Res: row(1017), Token: 7003, MapVersion: 3}),
		"put_ack": msg(db, client, bulletin.MsgPutAck, bulletin.PutAck{Token: 7003, MapVersion: 3}),
		"submit": msg(client, sched, pws.MsgSubmit, pws.SubmitReq{Token: 7004,
			Job: pws.Job{Pool: "batch", Name: "b17", Duration: 50 * time.Millisecond, Width: 1}}),
		"submit_ack": msg(sched, client, pws.MsgSubmitAck, pws.SubmitAck{Token: 7004, OK: true, ID: 17}),
	}
}

// putCodecMetrics times codec.AppendMessage and codec.DecodeMessage on
// every kind: ns per call (median of batches), encoded bytes, and heap
// allocations per encode+decode round trip.
func putCodecMetrics(m map[string]float64) {
	const batches, per = 9, 300
	buf := make([]byte, 0, 4096)
	for kind, msg := range codecKinds() {
		body, err := codec.AppendMessage(buf[:0], msg)
		if err != nil {
			panic("codec: " + kind + ": " + err.Error())
		}
		body = append([]byte(nil), body...)
		var enc, dec []float64
		for b := 0; b < batches; b++ {
			t0 := time.Now()
			for i := 0; i < per; i++ {
				buf, _ = codec.AppendMessage(buf[:0], msg)
			}
			t1 := time.Now()
			for i := 0; i < per; i++ {
				_, _ = codec.DecodeMessage(body)
			}
			enc = append(enc, float64(t1.Sub(t0).Nanoseconds())/per)
			dec = append(dec, float64(time.Since(t1).Nanoseconds())/per)
		}
		m["codec.encode_ns."+kind] = median(enc)
		m["codec.decode_ns."+kind] = median(dec)
		m["codec.bytes."+kind] = float64(len(body))
		m["codec.allocs."+kind] = testing.AllocsPerRun(100, func() {
			buf, _ = codec.AppendMessage(buf[:0], msg)
			_, _ = codec.DecodeMessage(body)
		})
	}
}
