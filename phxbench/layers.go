package main

import (
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// wireTotals sums the reliability counters of a set of transports.
type wireTotals struct {
	msgs, datagrams, acks, retx, dups, overflow, faults int64
}

func sumWire(trs []*wire.Transport) wireTotals {
	var w wireTotals
	for _, tr := range trs {
		s := tr.Stats()
		w.msgs += s.TxMsgs
		w.datagrams += s.TxDatagrams
		w.acks += s.TxAcks
		w.retx += s.Retransmits
		w.dups += s.DupDrops
		w.faults += s.PeerFaults
		w.overflow += int64(tr.Metrics().Counter("wire.tx.drop.overflow").Value())
	}
	return w
}

// snap is the counter state of every layer the benchmark reads from
// outside, taken at the start and the end of the measured window.
type snap struct {
	proc procSample
	wire wireTotals
	rpc  rpc.CallStats
}

func takeSnap(trs []*wire.Transport, rpcStats func() rpc.CallStats) snap {
	s := snap{proc: sampleProc(), wire: sumWire(trs)}
	if rpcStats != nil {
		s.rpc = rpcStats()
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// putCounterMetrics sets the process, wire and rpc per-layer metrics
// from the window's counter deltas over ops attempted.
func putCounterMetrics(m map[string]float64, a, b snap, ops int64) {
	n := float64(ops)
	m["allocs_per_op"] = ratio(float64(b.proc.allocs-a.proc.allocs), n)
	m["gc.cycles_per_kop"] = ratio(1000*float64(b.proc.gcs-a.proc.gcs), n)
	m["wire.datagrams_per_op"] = ratio(float64(b.wire.datagrams-a.wire.datagrams), n)
	m["wire.acks_per_op"] = ratio(float64(b.wire.acks-a.wire.acks), n)
	m["wire.retx_per_kop"] = ratio(1000*float64(b.wire.retx-a.wire.retx), n)
	m["wire.dup_drops"] = float64(b.wire.dups - a.wire.dups)
	m["wire.peer_faults"] = float64(b.wire.faults - a.wire.faults)
	full := float64(b.wire.overflow - a.wire.overflow)
	m["wire.send_full_frac"] = ratio(full, full+float64(b.wire.msgs-a.wire.msgs))
	calls := float64(b.rpc.Calls - a.rpc.Calls)
	m["rpc.attempts_per_call"] = ratio(float64(b.rpc.OK-a.rpc.OK), calls+float64(b.rpc.Retries-a.rpc.Retries))
	m["rpc.retries"] = float64(b.rpc.Retries - a.rpc.Retries)
	m["rpc.shed"] = float64(b.rpc.Shed - a.rpc.Shed)
}

// putOpenLoopMetrics sets the end-to-end metrics of an open-loop run and,
// for a traced run, the per-span and tracing-overhead metrics.
func putOpenLoopMetrics(rep *report, rec *recorder, sl *sliceClock, tr *tracer) {
	m := rep.metrics
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rep.openLoop = true
	rep.attempted = rec.attempted[0] + rec.attempted[1]
	rep.failed = rec.failed
	if rep.chk.sabotage(checkOps) {
		rep.failed++
	}
	if rep.failed > 0 {
		rep.chk.fail(checkOps, "%d of %d ops failed", rep.failed, rep.attempted)
	}
	lat := rec.lat[0]
	rep.p50 = median(lat)
	m["p50_ms"] = rep.p50
	m["p99_ms"] = blockP99(lat)
	m["ok_frac"] = 1 - ratio(float64(rep.failed), float64(rep.attempted))
	m["goodput_ops_s"] = ratio(float64(len(lat)), sl.wall[0].Seconds())
	cpu0 := sl.cpuPerOp(0, rec.attempted[0])
	m["cpu_us_per_op"] = cpu0
	rep.lateP50 = quantile(append([]float64(nil), rec.late...), 0.5)
	rep.lateP99 = quantile(append([]float64(nil), rec.late...), 0.99)
	rep.lateMax = quantile(append([]float64(nil), rec.late...), 1)
	m["gen.late_p50_ms"] = rep.lateP50
	m["gen.late_p99_ms"] = rep.lateP99
	m["gen.late_max_ms"] = rep.lateMax
	if tr == nil {
		return
	}
	m["trace.overhead_p50_ms"] = median(rec.lat[1]) - rep.p50
	m["trace.overhead_cpu_us_per_op"] = sl.cpuPerOp(1, rec.attempted[1]) - cpu0
	putSpanMetrics(m, tr)
}

// putSpanMetrics sets the median self time of every span name.
func putSpanMetrics(m map[string]float64, tr *tracer) {
	self := tr.selfTimes()
	for _, name := range spanNames {
		m["span."+name+".self_us"] = median(self[name])
	}
	dur := tr.durations()
	m["rpc.call_ms"] = median(dur[spanRPC]) / 1e3
	m["wire.send_ns"] = median(dur[spanSend]) * 1e3
}

// loopProbes measures how long work submitted to an event loop waits
// before it runs: a probe goroutine submits a no-op every interval, during
// traced slices only, alternating between the cluster's nodes and the
// client runtime.
type loopProbes struct {
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	server []float64 // µs
	client []float64 // µs
}

func startLoopProbes(start time.Time, servers []func(func()), client func(func())) *loopProbes {
	p := &loopProbes{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-p.stop:
				return
			case now := <-tick.C:
				if int(now.Sub(start)/sliceLen)%2 == 0 {
					continue
				}
				do, dst := client, &p.client
				if i%2 == 0 && len(servers) > 0 {
					do, dst = servers[(i/2)%len(servers)], &p.server
				}
				submitted := time.Now()
				var wait time.Duration
				do(func() { wait = time.Since(submitted) })
				p.mu.Lock()
				*dst = append(*dst, float64(wait.Nanoseconds())/1e3)
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// finish stops the probes and sets the mean loop waits.
func (p *loopProbes) finish(m map[string]float64) {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	m["loop.wait_us.server"] = mean(p.server)
	m["loop.wait_us.client"] = mean(p.client)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
