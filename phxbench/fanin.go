package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/heartbeat"
	"repro/internal/types"
	"repro/internal/wire"
)

// faninSources stream at node 0 of a 4-transport fabric.
const faninSources = 3

var faninDst = types.Addr{Node: 0, Service: types.SvcGSD}

// fanin is one bound fabric: bare transports on production default
// options, node 0's handler checking and timing every delivery.
type fanin struct {
	trs  []*wire.Transport
	seqs *seqTracker
	chk  *checker

	mu    sync.Mutex
	lat   [2][]float64 // one-way ms by traced, delivery order
	tr    *tracer      // set for a traced run; odd slices from start are traced
	start time.Time
	// Traced sends and their deliveries, by (source, seq), joined into
	// spans when the run ends: a delivery can beat its Send's return.
	sends     map[[2]uint64][2]time.Time
	delivered map[[2]uint64]time.Time
}

// faninWarmup is how many heartbeats each source streams during set-up,
// after its first one arrived: enough to open every lane's window and
// fill the send queues, so set-up is timed by the ack clock rather than
// by sub-millisecond socket binding alone.
const faninWarmup = 500

func bootFanin(chk *checker) (*fanin, float64, float64, error) {
	t0 := time.Now()
	trs, err := bindTransports(1+faninSources, 1)
	if err != nil {
		return nil, 0, 0, err
	}
	f := &fanin{trs: trs, seqs: newSeqTracker(), chk: chk,
		sends: make(map[[2]uint64][2]time.Time), delivered: make(map[[2]uint64]time.Time)}
	trs[0].Register(faninDst, f.deliver)
	bindMs := msSince(t0)
	t1 := time.Now()
	next := make([]uint64, 1+faninSources)
	for sent := 0; sent < faninSources*faninWarmup; {
		n, full, err := f.round(next, nil)
		if err != nil {
			closeAll(trs)
			return nil, 0, 0, err
		}
		sent += n
		if full == faninSources {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for f.seqs.delivered() < faninSources*faninWarmup {
		if time.Since(t1) > 20*time.Second {
			closeAll(trs)
			return nil, 0, 0, fmt.Errorf("wire-fanin: warm-up heartbeats not delivered within 20s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return f, bindMs, msSince(t1), nil
}

// round offers the next heartbeat of every source; a source whose send
// queue is full (the transport's flow control) skips its turn.
func (f *fanin) round(next []uint64, tr *tracer) (sent, full int, err error) {
	for src := 1; src <= faninSources; src++ {
		err := f.send(types.NodeID(src), next[src], tr)
		switch {
		case err == nil:
			next[src]++
			sent++
		case errors.Is(err, wire.ErrPeerUnreachable):
			full++
		default:
			return sent, full, fmt.Errorf("wire-fanin: send: %w", err)
		}
	}
	return sent, full, nil
}

func (f *fanin) send(src types.NodeID, seq uint64, tr *tracer) error {
	msg := types.Message{
		From: types.Addr{Node: src, Service: types.SvcWD}, To: faninDst,
		Type: heartbeat.MsgHeartbeat, NIC: types.AnyNIC,
		Payload: heartbeat.Heartbeat{Node: src, Seq: seq, Interval: 150 * time.Millisecond},
	}
	if tr == nil {
		return f.trs[src].Send(msg)
	}
	start := time.Now()
	err := f.trs[src].Send(msg)
	end := time.Now()
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.sends[[2]uint64{uint64(src), seq}] = [2]time.Time{start, end}
	f.mu.Unlock()
	return nil
}

// spans turns the traced sends into op spans (send call to delivery)
// with their wire.send children.
func (f *fanin) spans() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for key, se := range f.sends {
		at, ok := f.delivered[key]
		if !ok {
			continue
		}
		op := key[0]<<32 | key[1]
		root := f.tr.add(op, -1, spanOp, se[0], at)
		f.tr.add(op, root, spanSend, se[0], se[1])
	}
}

// deliver runs on node 0's reader goroutine for every heartbeat.
func (f *fanin) deliver(msg types.Message) {
	now := time.Now()
	hb, ok := msg.Payload.(heartbeat.Heartbeat)
	if !ok {
		f.chk.fail(checkFanin, "payload %T, want heartbeat", msg.Payload)
		return
	}
	f.seqs.deliver(f.chk, hb.Node, hb.Seq)
	if f.chk.sabotage(checkFanin) && hb.Seq == 100 {
		f.seqs.deliver(f.chk, hb.Node, hb.Seq) // a duplicate delivery
	}
	lat := float64(now.Sub(msg.Sent).Nanoseconds()) / 1e6
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tr != nil && int(msg.Sent.Sub(f.start)/sliceLen)%2 == 1 {
		f.delivered[[2]uint64{uint64(hb.Node), hb.Seq}] = now
		f.lat[1] = append(f.lat[1], lat)
		return
	}
	f.lat[0] = append(f.lat[0], lat)
}

func (f *fanin) stop() { closeAll(f.trs) }

func runFanin(cfg benchConfig) (*report, error) {
	chk := newChecker(cfg.corrupt)
	rep := newReport(chk)
	m := rep.metrics
	f, err := setupBoots(cfg, m, func() (*fanin, float64, float64, error) {
		return bootFanin(chk)
	}, (*fanin).stop)
	if err != nil {
		return nil, err
	}
	defer f.stop()

	runtime.GC()
	start := time.Now()
	var tr *tracer
	var probes *loopProbes
	if cfg.trace {
		tr = newTracer(start)
		f.mu.Lock()
		f.tr, f.start = tr, start
		f.mu.Unlock()
		probes = startLoopProbes(start, []func(func()){f.trs[0].Loop().Run}, f.trs[1].Loop().Run)
	}
	before := takeSnap(f.trs, nil)
	heap := startHeapPeak()
	delivered0 := f.seqs.delivered()

	// One goroutine round-robins the sources, continuing each source's
	// sequence from the warm-up.
	next := make([]uint64, 1+faninSources)
	for src := 1; src <= faninSources; src++ {
		next[src] = faninWarmup
	}
	var sent [2]int64
	sl := newSliceClock(start, tr != nil)
	end := start.Add(cfg.window)
	var sendErr error
	now := time.Now()
	for ; now.Before(end) && sendErr == nil; now = time.Now() {
		if !now.Before(sl.boundary()) {
			sl.next(now)
		}
		var opTr *tracer
		if sl.kind() == 1 {
			opTr = tr
		}
		n, full, err := f.round(next, opTr)
		sent[b2i(opTr != nil)] += int64(n)
		sendErr = err
		if full == faninSources {
			time.Sleep(100 * time.Microsecond)
		}
	}
	sl.next(now)
	deliveredWindow := f.seqs.delivered() - delivered0
	after := takeSnap(f.trs, nil)
	m["mem_mb"] = heap.finish()
	if probes != nil {
		probes.finish(m)
	}
	if sendErr != nil {
		return nil, sendErr
	}

	// Drain: every accepted heartbeat must arrive.
	total := sent[0] + sent[1]
	deadline := time.Now().Add(20 * time.Second)
	for f.seqs.delivered()-delivered0 < total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	rep.attempted = total
	rep.failed = total - (f.seqs.delivered() - delivered0)

	f.mu.Lock()
	lat := f.lat[0]
	rep.p50 = median(lat)
	m["p50_ms"] = rep.p50
	m["p99_ms"] = blockP99(lat)
	m["goodput_ops_s"] = float64(deliveredWindow) / now.Sub(start).Seconds()
	m["ok_frac"] = 1 - ratio(float64(rep.failed), float64(total))
	cpu0 := sl.cpuPerOp(0, sent[0])
	m["cpu_us_per_op"] = cpu0
	if tr != nil {
		m["trace.overhead_p50_ms"] = median(f.lat[1]) - rep.p50
		m["trace.overhead_cpu_us_per_op"] = sl.cpuPerOp(1, sent[1]) - cpu0
	}
	f.mu.Unlock()
	// Closed loop: there is no schedule to fall behind.
	m["gen.late_p50_ms"], m["gen.late_p99_ms"], m["gen.late_max_ms"] = 0, 0, 0
	putCounterMetrics(m, before, after, total)
	if tr != nil {
		f.spans()
		putSpanMetrics(m, tr)
		putCodecMetrics(m)
		if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	// No noded here: set-up is binding the transports and the warm-up.
	delete(m, "noded.start_ms")
	delete(m, "noded.ready_ms")
	rep.absent = []string{"bulletin.", "gossip.", "pws.", "rpc.", "noded."}
	return rep, nil
}
