package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bulletin"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/noded"
	"repro/internal/rpc"
	"repro/internal/types"
	"repro/internal/wire"
)

// Bulletin workload shape. The read working set is larger than the
// write set so reads spread over many rows while writes revisit keys
// often enough that reads of just-written keys race replication.
const (
	bulletinRate = 500.0 // offered ops/s: a sixth of the 3000 ops/s knee; see "Host stalls" in README.md
	readKeys     = 256
	writeKeys    = 64
	keyBase      = 1000 // key IDs sit above any real node ID
)

// bulletinClient is the benchmark's phoenix-call: a bulletin client on the
// client transport's "call" runtime, with phoenix-call's retry policy.
type bulletinClient struct {
	rt  *wire.Runtime
	trt *tracedRT
	cl  *bulletin.Client
	reg *metrics.Registry
}

func newBulletinClient(r *rig, seed int64) *bulletinClient {
	var dbAddrs []types.Addr
	for _, p := range r.topo.Partitions {
		dbAddrs = append(dbAddrs, types.Addr{Node: p.Server, Service: types.SvcDB})
	}
	bc := &bulletinClient{rt: wire.NewRuntime(r.client, "call", seed), reg: metrics.NewRegistry()}
	bc.trt = newTracedRT(bc.rt)
	opts := rpc.Options{
		Budget: 10 * time.Second,
		Policy: &rpc.Policy{MaxAttempts: 21, Attempt: 500 * time.Millisecond,
			Backoff: 50 * time.Millisecond, BackoffMax: 500 * time.Millisecond},
		Metrics: bc.reg,
		Peers:   func() []types.Addr { return dbAddrs },
	}
	bc.cl = bulletin.NewClient(bc.trt, opts, func() (types.Addr, bool) { return dbAddrs[0], true })
	bc.rt.Attach(func(msg types.Message) { bc.trt.handle(msg, bc.cl.Handle) })
	return bc
}

// call runs one client operation in the loop and waits for its result.
func callSync[T any](do func(func()), start func(done func(T, bool)), timeout time.Duration) (T, bool) {
	ch := make(chan struct {
		v  T
		ok bool
	}, 1)
	do(func() {
		start(func(v T, ok bool) {
			ch <- struct {
				v  T
				ok bool
			}{v, ok}
		})
	})
	select {
	case r := <-ch:
		return r.v, r.ok
	case <-time.After(timeout):
		var zero T
		return zero, false
	}
}

func (bc *bulletinClient) query() (bulletin.QueryAck, bool) {
	return callSync(bc.rt.Do, func(done func(bulletin.QueryAck, bool)) {
		bc.cl.Query(bulletin.ScopeCluster, done)
	}, 15*time.Second)
}

func (bc *bulletinClient) get(key types.NodeID) (bulletin.GetAck, bool) {
	return callSync(bc.rt.Do, func(done func(bulletin.GetAck, bool)) { bc.cl.Get(key, done) }, 15*time.Second)
}

// bootBulletin boots the 2 x 2 cluster and its client and waits for the
// first cluster query that every partition answers.
func bootBulletin(seed int64) (*rig, *bulletinClient, float64, error) {
	topo, err := config.Uniform(2, 2, planes)
	if err != nil {
		return nil, nil, 0, err
	}
	r, err := bootRig(topo, false)
	if err != nil {
		return nil, nil, 0, err
	}
	bc := newBulletinClient(r, seed)
	t0 := time.Now()
	for {
		if ack, ok := bc.query(); ok && verifyQuery(ack, len(topo.Partitions)) == nil {
			break
		}
		if time.Since(t0) > 30*time.Second {
			bc.rt.Close()
			r.stop()
			return nil, nil, 0, fmt.Errorf("bulletin: no fully covered cluster query within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return r, bc, msSince(t0), nil
}

// setupBoots boots cfg.boots clusters in turn, keeps the last, and
// reports the median set-up time of all of them.
func setupBoots[R any](cfg benchConfig, m map[string]float64,
	boot func() (R, float64, float64, error), stop func(R)) (R, error) {
	var starts, readies, totals []float64
	var last R
	for b := 0; b < cfg.boots; b++ {
		r, startMs, readyMs, err := boot()
		if err != nil {
			return last, err
		}
		starts, readies = append(starts, startMs), append(readies, readyMs)
		totals = append(totals, (startMs+readyMs)/1e3)
		if b < cfg.boots-1 {
			stop(r)
		}
		last = r
	}
	m["setup_s"] = median(totals)
	m["noded.start_ms"] = median(starts)
	m["noded.ready_ms"] = median(readies)
	return last, nil
}

type bulletinRun struct {
	r  *rig
	bc *bulletinClient
}

func runBulletin(cfg benchConfig, write bool) (*report, error) {
	chk := newChecker(cfg.corrupt)
	rep := newReport(chk)
	m := rep.metrics
	run, err := setupBoots(cfg, m, func() (bulletinRun, float64, float64, error) {
		r, bc, readyMs, err := bootBulletin(cfg.seed)
		if err != nil {
			return bulletinRun{}, 0, 0, err
		}
		return bulletinRun{r, bc}, r.startMs, readyMs, nil
	}, func(b bulletinRun) { b.bc.rt.Close(); b.r.stop() })
	if err != nil {
		return nil, err
	}
	r, bc := run.r, run.bc
	defer r.stop()
	defer bc.rt.Close()

	// Every key starts with one acked row (version 1..nkeys), replicated
	// before the window opens, so every keyed read has a row to find.
	nkeys := readKeys
	if write {
		nkeys = writeKeys
	}
	st := newKeyState(time.Now())
	for k := 0; k < nkeys; k++ {
		key := types.NodeID(keyBase + k)
		seq := st.nextSeq()
		if _, ok := callSync(bc.rt.Do, func(done func(bool, bool)) {
			bc.cl.PutRes(st.row(key, seq), func(ok bool) { done(ok, ok) })
		}, 15*time.Second); !ok {
			return nil, fmt.Errorf("bulletin: preload put of %v failed", key)
		}
		st.acked(key, seq, time.Now())
	}
	if err := waitReplicated(r.nodes, nkeys); err != nil {
		return nil, err
	}

	var tr *tracer
	rng := rand.New(rand.NewSource(cfg.seed))     // arrival times
	mix := rand.New(rand.NewSource(cfg.seed + 1)) // op choices, drawn in op order
	rate := bulletinRate
	if cfg.rate > 0 {
		rate = cfg.rate
	}
	rec := newRecorder()
	statsBefore := clusterStats(r.nodes)
	var rerouted0 uint64
	bc.rt.Do(func() { rerouted0 = bc.cl.Rerouted() })
	runtime.GC()
	start := time.Now().Add(10 * time.Millisecond)
	if cfg.trace {
		tr = newTracer(start)
	}
	var probes *loopProbes
	if cfg.trace {
		var servers []func(func())
		for _, n := range r.nodes {
			servers = append(servers, n.Do)
		}
		probes = startLoopProbes(start, servers, bc.rt.Do)
	}
	readStats := func() rpc.CallStats { return rpc.ReadStats(bc.reg) }
	before := takeSnap(r.allTransports(), readStats)
	heap := startHeapPeak()

	parts := len(r.topo.Partitions)
	var lastPut types.NodeID = keyBase
	sl := openLoop(start, cfg.window, rate, rng, tr, rec, func(i int, due time.Time, opTr *tracer) {
		op := uint64(i + 1)
		roll := mix.Float64()
		switch {
		case !write && roll < 0.8, write && roll >= 0.7:
			key := lastPut // write: the key just written
			if !write {
				key = types.NodeID(keyBase + mix.Intn(nkeys))
			}
			issueOp(bc.trt, op, due, opTr, func(ctx *opCtx) {
				floor := st.floors(key, time.Now())
				bc.cl.Get(key, func(ack bulletin.GetAck, ok bool) {
					callMs := bc.trt.complete(ctx)
					if ok {
						st.checkRead(chk, key, ack, floor)
					}
					rec.done(opTr != nil, ok, due, "get", callMs)
				})
			})
		case !write:
			issueOp(bc.trt, op, due, opTr, func(ctx *opCtx) {
				bc.cl.Query(bulletin.ScopeCluster, func(ack bulletin.QueryAck, ok bool) {
					callMs := bc.trt.complete(ctx)
					if ok {
						if chk.sabotage(checkQuery) {
							ack.Missing = append(ack.Missing, 0)
						}
						if err := verifyQuery(ack, parts); err != nil {
							chk.fail(checkQuery, "%v", err)
						}
					}
					rec.done(opTr != nil, ok, due, "query", callMs)
				})
			})
		default:
			key := types.NodeID(keyBase + mix.Intn(nkeys))
			lastPut = key
			issueOp(bc.trt, op, due, opTr, func(ctx *opCtx) {
				seq := st.nextSeq()
				bc.cl.PutRes(st.row(key, seq), func(ok bool) {
					callMs := bc.trt.complete(ctx)
					if ok {
						st.acked(key, seq, time.Now())
					}
					rec.done(opTr != nil, ok, due, "put", callMs)
				})
			})
		}
	})
	after := takeSnap(r.allTransports(), readStats)
	m["mem_mb"] = heap.finish()
	if probes != nil {
		probes.finish(m)
	}
	drained := rec.wait(30 * time.Second)
	statsAfter := clusterStats(r.nodes)
	var rerouted1 uint64
	bc.rt.Do(func() { rerouted1 = bc.cl.Rerouted() })

	putOpenLoopMetrics(rep, rec, sl, tr)
	if !drained {
		return nil, fmt.Errorf("bulletin: ops still pending 30s after the window")
	}
	if write {
		audit(chk, bc, st)
	}
	putCounterMetrics(m, before, after, rep.attempted)
	secs := cfg.window.Seconds()
	m["bulletin.cache_hit_ratio"] = ratio(float64(statsAfter.cacheHits-statsBefore.cacheHits),
		float64(statsAfter.cacheHits-statsBefore.cacheHits+statsAfter.cacheMisses-statsBefore.cacheMisses))
	m["bulletin.delta_batches_per_s"] = float64(statsAfter.deltaBatches-statsBefore.deltaBatches) / secs
	m["gossip.rounds_per_s"] = float64(statsAfter.gossipRounds-statsBefore.gossipRounds) / secs
	m["bulletin.rerouted"] = float64(rerouted1 - rerouted0)
	if tr != nil {
		rec.mu.Lock()
		m["bulletin.get_ms"] = median(rec.kindMs["get"])
		m["bulletin.query_ms"] = median(rec.kindMs["query"])
		m["bulletin.put_ms"] = median(rec.kindMs["put"])
		rec.mu.Unlock()
		putCodecMetrics(m)
		if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	rep.absent = []string{"pws."}
	return rep, nil
}

// keyState is the client's record of what it wrote: versions are a
// global sequence, carried in the row's Collected time (base + seq ns,
// so newest-sample-wins orders them) and its CPUPct; MemPct carries the
// key, so a row that landed under the wrong key is caught. Loop-confined
// except for construction.
type keyState struct {
	base  time.Time
	seq   int64
	hist  map[types.NodeID][]ackRec // acked versions, oldest first (last 64)
	maxOK map[types.NodeID]int64
}

type ackRec struct {
	seq int64
	at  time.Time
}

// readFloor is what a read issued at one instant must at least see.
type readFloor struct {
	primary int64 // newest version acked before the read was issued
	replica int64 // newest version acked staleBound before that
}

func newKeyState(base time.Time) *keyState {
	return &keyState{base: base, hist: make(map[types.NodeID][]ackRec), maxOK: make(map[types.NodeID]int64)}
}

func (s *keyState) nextSeq() int64 { s.seq++; return s.seq }

func (s *keyState) row(key types.NodeID, seq int64) types.ResourceStats {
	return types.ResourceStats{Node: key, CPUPct: float64(seq), MemPct: float64(key),
		Collected: s.base.Add(time.Duration(seq))}
}

func (s *keyState) acked(key types.NodeID, seq int64, at time.Time) {
	if seq > s.maxOK[key] {
		s.maxOK[key] = seq
	}
	h := append(s.hist[key], ackRec{seq, at})
	if len(h) > 64 {
		h = h[len(h)-64:]
	}
	s.hist[key] = h
}

func (s *keyState) floors(key types.NodeID, issued time.Time) readFloor {
	f := readFloor{primary: s.maxOK[key]}
	for _, a := range s.hist[key] {
		if a.at.Before(issued.Add(-staleBound)) && a.seq > f.replica {
			f.replica = a.seq
		}
	}
	return f
}

// verifyRow checks that a keyed read of key found the key's row holding
// a value written at its version, and returns that version.
func (s *keyState) verifyRow(key types.NodeID, ack bulletin.GetAck) (int64, error) {
	seq := ack.Res.Collected.Sub(s.base).Nanoseconds()
	switch {
	case !ack.Found:
		return 0, fmt.Errorf("key %v not found", key)
	case ack.Res.Node != key || ack.Res.MemPct != float64(key):
		return 0, fmt.Errorf("asked for %v, got row of %v (written as %v)", key, ack.Res.Node, ack.Res.MemPct)
	case ack.Res.CPUPct != float64(seq):
		return 0, fmt.Errorf("key %v version %d holds %v, never written", key, seq, ack.Res.CPUPct)
	}
	return seq, nil
}

// checkRead verifies a keyed read: the right row with a value that was
// written, at least as new as the floor for the copy that answered.
func (s *keyState) checkRead(chk *checker, key types.NodeID, ack bulletin.GetAck, f readFloor) {
	if chk.sabotage(checkGet) {
		ack.Res.Node++
	}
	if chk.sabotage(checkRYW) && ack.Primary {
		ack.Res.Collected = s.base.Add(time.Duration(f.primary - 1))
		ack.Res.CPUPct = float64(f.primary - 1)
	}
	if chk.sabotage(checkStale) && !ack.Primary {
		ack.Res.Collected = s.base.Add(time.Duration(f.replica - 1))
		ack.Res.CPUPct = float64(f.replica - 1)
	}
	seq, err := s.verifyRow(key, ack)
	if err != nil {
		chk.fail(checkGet, "%v", err)
		return
	}
	switch {
	case ack.Primary && seq < f.primary:
		chk.fail(checkRYW, "primary read of %v saw version %d after %d was acked", key, seq, f.primary)
	case !ack.Primary && seq < f.replica:
		chk.fail(checkStale, "replica read of %v saw version %d, %d was acked over %v earlier",
			key, seq, f.replica, staleBound)
	}
}

// audit re-reads every key after the drain until each copy holder returns
// its newest acked version, or fails after a replication deadline.
func audit(chk *checker, bc *bulletinClient, st *keyState) {
	var keys []types.NodeID
	want := make(map[types.NodeID]int64)
	bc.rt.Do(func() {
		for k, v := range st.maxOK {
			keys = append(keys, k)
			want[k] = v
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		var bad []string
		for _, k := range keys {
			for copyRead := 0; copyRead < 2; copyRead++ { // Get rotates over both copy holders
				ack, ok := bc.get(k)
				got := ack.Res.Collected.Sub(st.base).Nanoseconds()
				if chk.sabotage(checkAudit) {
					got = want[k] - 1
				}
				if !ok || !ack.Found || got < want[k] {
					bad = append(bad, fmt.Sprintf("%v at %d want >= %d (ok=%v)", k, got, want[k], ok))
				}
			}
		}
		if len(bad) == 0 {
			return
		}
		if time.Now().After(deadline) {
			chk.fail(checkAudit, "%d stale reads after the drain, first: %s", len(bad), bad[0])
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// waitReplicated waits until the shard replicas hold every key.
func waitReplicated(nodes []*noded.Node, keys int) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		rows := 0
		for _, n := range nodes {
			if sh := n.Status().Shard; sh != nil {
				rows += sh.ReplicaRows
			}
		}
		if rows >= keys {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bulletin: %d of %d preloaded rows replicated after 15s", rows, keys)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// nodeTotals sums the bulletin and gossip counters of every node.
type nodeTotals struct {
	cacheHits, cacheMisses, deltaBatches, gossipRounds uint64
}

func clusterStats(nodes []*noded.Node) nodeTotals {
	var t nodeTotals
	for _, n := range nodes {
		st := n.Status()
		if st.Shard != nil {
			t.cacheHits += st.Shard.CacheHits
			t.cacheMisses += st.Shard.CacheMisses
			t.deltaBatches += st.Shard.DeltaBatchesOut
		}
		if st.Gossip != nil {
			t.gossipRounds += st.Gossip.Rounds
		}
	}
	return t
}
