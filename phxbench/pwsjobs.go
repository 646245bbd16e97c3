package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/pws"
	"repro/internal/rpc"
	"repro/internal/types"
	"repro/internal/wire"
)

// PWS workload shape: a mixed service/batch load of short width-1 jobs,
// offered faster than the scheduler cycle completes them, so the queue,
// dispatch through ppm and the shed ladder all do work. Every op is a
// submit; latency and CPU are per submit.
const (
	pwsRate        = 20.0 // offered submits/s
	pwsServiceFrac = 0.3
	pwsJob         = 50 * time.Millisecond
	pwsSampleEvery = 8 // traced runs follow every 8th accepted job with JobStat
)

type pwsClient struct {
	rt  *wire.Runtime
	trt *tracedRT
	cl  *pws.Client
	reg *metrics.Registry
}

func newPWSClient(r *rig, seed int64) *pwsClient {
	target := types.Addr{Node: r.topo.Partitions[0].Server, Service: types.SvcPWS}
	pc := &pwsClient{rt: wire.NewRuntime(r.client, "call", seed), reg: metrics.NewRegistry()}
	pc.trt = newTracedRT(pc.rt)
	opts := rpc.Options{
		Budget: 10 * time.Second,
		Policy: &rpc.Policy{MaxAttempts: 21, Attempt: 500 * time.Millisecond,
			Backoff: 50 * time.Millisecond, BackoffMax: 500 * time.Millisecond},
		Metrics: pc.reg,
	}
	pc.cl = pws.NewClient(pc.trt, opts, func() (types.Addr, bool) { return target, true })
	pc.rt.Attach(func(msg types.Message) { pc.trt.handle(msg, pc.cl.Handle) })
	return pc
}

func (pc *pwsClient) stat() (pws.StatAck, bool) {
	return callSync(pc.rt.Do, func(done func(pws.StatAck, bool)) { pc.cl.Stat(done) }, 15*time.Second)
}

func (pc *pwsClient) jobStat(id types.JobID) (pws.JobStatAck, bool) {
	return callSync(pc.rt.Do, func(done func(pws.JobStatAck, bool)) { pc.cl.JobStat(id, done) }, 15*time.Second)
}

type pwsRun struct {
	r  *rig
	pc *pwsClient
}

// pwsTally counts submit outcomes; written from the client loop.
type pwsTally struct {
	mu                         sync.Mutex
	accepted, batch, batchShed int
	serviceShed                int
	followers                  sync.WaitGroup
	waits, turns               []float64 // sampled jobs, ms from submit ack
	followErr                  error
}

// follow polls a sampled job from its own goroutine until it completes.
func (t *pwsTally) follow(pc *pwsClient, id types.JobID, acked time.Time) {
	t.followers.Add(1)
	go func() {
		defer t.followers.Done()
		w, turn, err := followJob(pc, id, acked)
		t.mu.Lock()
		defer t.mu.Unlock()
		if err != nil {
			t.followErr = err
			return
		}
		t.waits, t.turns = append(t.waits, w), append(t.turns, turn)
	}()
}

func runPWS(cfg benchConfig) (*report, error) {
	chk := newChecker(cfg.corrupt)
	rep := newReport(chk)
	m := rep.metrics
	topo, err := config.Uniform(1, 4, planes)
	if err != nil {
		return nil, err
	}
	run, err := setupBoots(cfg, m, func() (pwsRun, float64, float64, error) {
		r, err := bootRig(topo, true)
		if err != nil {
			return pwsRun{}, 0, 0, err
		}
		pc := newPWSClient(r, cfg.seed)
		t0 := time.Now()
		for {
			if _, ok := pc.stat(); ok {
				break
			}
			if time.Since(t0) > 30*time.Second {
				pc.rt.Close()
				r.stop()
				return pwsRun{}, 0, 0, fmt.Errorf("pws: no Stat answer within 30s")
			}
			time.Sleep(5 * time.Millisecond)
		}
		return pwsRun{r, pc}, r.startMs, msSince(t0), nil
	}, func(p pwsRun) { p.pc.rt.Close(); p.r.stop() })
	if err != nil {
		return nil, err
	}
	r, pc := run.r, run.pc
	defer r.stop()
	defer pc.rt.Close()

	rate := pwsRate
	if cfg.rate > 0 {
		rate = cfg.rate
	}
	rng := rand.New(rand.NewSource(cfg.seed))     // arrival times
	mix := rand.New(rand.NewSource(cfg.seed + 1)) // op choices, drawn in op order
	rec := newRecorder()
	var tally pwsTally
	st0, ok := pc.stat()
	t0 := time.Now()
	if !ok {
		return nil, fmt.Errorf("pws: Stat before the window failed")
	}
	runtime.GC()
	start := time.Now().Add(10 * time.Millisecond)
	var tr *tracer
	var probes *loopProbes
	if cfg.trace {
		tr = newTracer(start)
		var servers []func(func())
		for _, n := range r.nodes {
			servers = append(servers, n.Do)
		}
		probes = startLoopProbes(start, servers, pc.rt.Do)
	}
	readStats := func() rpc.CallStats { return rpc.ReadStats(pc.reg) }
	before := takeSnap(r.allTransports(), readStats)
	heap := startHeapPeak()

	// Traced runs poll Stat to time the shed ladder's rungs.
	var rungS float64
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pollDone)
		if !cfg.trace {
			return
		}
		last := time.Now()
		for {
			select {
			case <-stopPoll:
				return
			case <-time.After(100 * time.Millisecond):
			}
			st, ok := pc.stat()
			now := time.Now()
			if ok && st.Shed != pws.ShedNames[0] {
				rungS += now.Sub(last).Seconds()
			}
			last = now
		}
	}()

	sl := openLoop(start, cfg.window, rate, rng, tr, rec, func(i int, due time.Time, opTr *tracer) {
		service := mix.Float64() < pwsServiceFrac
		job := pws.Job{Pool: "batch", Name: fmt.Sprintf("b%d", i), Duration: pwsJob, Width: 1}
		if service {
			job.Pool, job.Name = "service", fmt.Sprintf("s%d", i)
		}
		issueOp(pc.trt, uint64(i+1), due, opTr, func(ctx *opCtx) {
			pc.cl.Submit(job, func(ack pws.SubmitAck) {
				callMs := pc.trt.complete(ctx)
				if chk.sabotage(checkPWSShed) && service {
					ack.OK, ack.Shed = false, true
				}
				ok := ack.OK || (ack.Shed && !service)
				tally.mu.Lock()
				switch {
				case ack.OK:
					tally.accepted++
					if opTr != nil && tally.accepted%pwsSampleEvery == 0 {
						tally.follow(pc, ack.ID, time.Now())
					}
				case ack.Shed && service:
					tally.serviceShed++
				}
				if !service {
					tally.batch++
					if ack.Shed {
						tally.batchShed++
					}
				}
				tally.mu.Unlock()
				rec.done(opTr != nil, ok, due, "submit", callMs)
			})
		})
	})
	after := takeSnap(r.allTransports(), readStats)
	m["mem_mb"] = heap.finish()
	close(stopPoll)
	<-pollDone
	st1, ok := pc.stat()
	t1 := time.Now()
	if !ok {
		return nil, fmt.Errorf("pws: Stat after the window failed")
	}
	if probes != nil {
		probes.finish(m)
	}
	if !rec.wait(30 * time.Second) {
		return nil, fmt.Errorf("pws: submits still pending 30s after the window")
	}
	putOpenLoopMetrics(rep, rec, sl, tr)

	tally.followers.Wait()

	// Drain: wait for the queue to empty, then account for every job.
	final := st1
	deadline := time.Now().Add(30 * time.Second)
	for final.Queued+final.Running > 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if st, ok := pc.stat(); ok {
			final = st
		}
	}
	tally.mu.Lock()
	accepted := tally.accepted
	if chk.sabotage(checkPWSCount) {
		accepted++
	}
	verifyPWS(chk, final, accepted, tally.serviceShed)
	jobsDone := float64(st1.Completed-st0.Completed) / t1.Sub(t0).Seconds()
	m["goodput_ops_s"] = jobsDone
	m["pws.jobs_done_s"] = jobsDone
	m["pws.shed_frac"] = ratio(float64(tally.batchShed), float64(tally.batch))
	m["pws.queue_wait_ms"] = median(tally.waits)
	m["pws.turnaround_ms"] = median(tally.turns)
	followErr := tally.followErr
	tally.mu.Unlock()
	if followErr != nil {
		return nil, followErr
	}
	m["pws.preempted"] = float64(st1.Preempted - st0.Preempted)
	m["pws.requeued"] = float64(st1.Requeued - st0.Requeued)
	m["pws.shed_rung_s"] = rungS
	putCounterMetrics(m, before, after, rep.attempted)
	if tr != nil {
		rec.mu.Lock()
		m["pws.submit_ms"] = median(rec.kindMs["submit"])
		rec.mu.Unlock()
		putCodecMetrics(m)
		if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
	}
	rep.absent = []string{"bulletin.", "gossip."}
	return rep, nil
}

// followJob polls one job until it completes and reports, in ms from its
// submit ack, when it was first seen running and when completed.
func followJob(pc *pwsClient, id types.JobID, acked time.Time) (wait, turnaround float64, err error) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		ack, ok := pc.jobStat(id)
		now := msSince(acked)
		if ok {
			switch ack.State {
			case pws.StateRunning:
				if wait == 0 {
					wait = now
				}
			case pws.StateCompleted:
				if wait == 0 {
					wait = now
				}
				return wait, now, nil
			case pws.StateFailed, pws.StateDeleted, pws.StateTimeout:
				return 0, 0, fmt.Errorf("pws: sampled job %v ended %s", id, ack.State)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return 0, 0, fmt.Errorf("pws: sampled job %v not completed within 30s", id)
}
