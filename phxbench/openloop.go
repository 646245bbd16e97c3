package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/bulletin"
	"repro/internal/pws"
	"repro/internal/types"
	"repro/internal/wire"
)

// sliceLen is the tracing toggle period of a traced run: odd slices are
// traced, even ones not, so tracing overhead is measured against
// interleaved untraced slices of the same run rather than a separate run.
const sliceLen = time.Second

// recorder collects op outcomes from the client loop and the generator.
type recorder struct {
	mu        sync.Mutex
	lat       [2][]float64 // completion latency in ms, by traced (0/1), completion order
	attempted [2]int64
	failed    int64
	late      []float64 // generator lateness in ms, every op
	kindMs    map[string][]float64
	pending   sync.WaitGroup
}

func newRecorder() *recorder { return &recorder{kindMs: make(map[string][]float64)} }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// issued counts an op before it is handed to the system.
func (r *recorder) issued(traced bool, lateMs float64) {
	r.pending.Add(1)
	r.mu.Lock()
	r.attempted[b2i(traced)]++
	r.late = append(r.late, lateMs)
	r.mu.Unlock()
}

// done records an op's completion; latency runs from when it was due.
func (r *recorder) done(traced, ok bool, due time.Time, kind string, callMs float64) {
	lat := float64(time.Since(due).Nanoseconds()) / 1e6
	r.mu.Lock()
	if ok {
		r.lat[b2i(traced)] = append(r.lat[b2i(traced)], lat)
	} else {
		r.failed++
	}
	if traced && kind != "" {
		r.kindMs[kind] = append(r.kindMs[kind], callMs)
	}
	r.mu.Unlock()
	r.pending.Done()
}

// wait blocks until every issued op completed or the timeout passed. On
// a timeout the run fails and the process exits, ending the goroutine
// left waiting.
func (r *recorder) wait(timeout time.Duration) bool {
	ch := make(chan struct{})
	go func() { r.pending.Wait(); close(ch) }()
	select {
	case <-ch:
		return true
	case <-time.After(timeout):
		return false
	}
}

// sliceClock splits a measured window into sliceLen slices and accumulates
// process CPU and wall time per slice kind (0 untraced, 1 traced). Only
// a traced run has traced slices: its odd ones.
type sliceClock struct {
	start  time.Time
	traced bool
	n      int // current slice
	at     time.Time
	atCPU  time.Duration
	cpu    [2]time.Duration
	wall   [2]time.Duration
}

func newSliceClock(start time.Time, traced bool) *sliceClock {
	return &sliceClock{start: start, traced: traced, at: start, atCPU: cpuTime()}
}

// kind is 1 while the current slice is traced.
func (s *sliceClock) kind() int { return b2i(s.traced && s.n%2 == 1) }

// boundary is when the current slice ends.
func (s *sliceClock) boundary() time.Time { return s.start.Add(time.Duration(s.n+1) * sliceLen) }

// next closes the current slice at now and opens the following one.
func (s *sliceClock) next(now time.Time) {
	c := cpuTime()
	s.cpu[s.kind()] += c - s.atCPU
	s.wall[s.kind()] += now.Sub(s.at)
	s.n++
	s.at, s.atCPU = now, c
}

// cpuPerOp is the process CPU of one slice kind per op of that kind, in µs.
func (s *sliceClock) cpuPerOp(kind int, ops int64) float64 {
	return ratio(float64(s.cpu[kind].Microseconds()), float64(ops))
}

// arrivals draws the due offsets of one window: a Poisson process of the
// given rate conditioned on its count, round(rate x window), which is that
// many independent uniform instants of the window, sorted. Fixing the
// count keeps per-op metrics from moving with how many ops a seed draws.
func arrivals(window time.Duration, rate float64, rng *rand.Rand) []time.Duration {
	offs := make([]time.Duration, int(math.Round(rate*window.Seconds())))
	for i := range offs {
		offs[i] = time.Duration(rng.Int63n(int64(window)))
	}
	slices.Sort(offs)
	return offs
}

// openLoop drives the arrivals of a rate for the window from start,
// calling issue with each op's index, due time and tracer (nil when the
// op is untraced). issue hands the op to the client loop and returns; a
// loop that is slow to accept it delays this op and the ones behind it,
// which their latency from due time shows.
func openLoop(start time.Time, window time.Duration, rate float64, rng *rand.Rand,
	tr *tracer, rec *recorder, issue func(i int, due time.Time, tr *tracer)) *sliceClock {
	// The generator owns its thread and sleeps in the kernel: Go timers
	// wake about a millisecond late on an idle process, which would put
	// a millisecond of generator lateness into every op's latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	sl := newSliceClock(start, tr != nil)
	end := start.Add(window)
	for i, off := range arrivals(window, rate, rng) {
		due := start.Add(off)
		for !due.Before(sl.boundary()) {
			sleepUntil(sl.boundary())
			sl.next(time.Now())
		}
		sleepUntil(due)
		var opTr *tracer
		if sl.kind() == 1 {
			opTr = tr
		}
		rec.issued(opTr != nil, float64(time.Since(due).Nanoseconds())/1e6)
		issue(i, due, opTr)
	}
	sleepUntil(end)
	sl.next(time.Now())
	return sl
}

// sleepUntil blocks the calling thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// opCtx is the loop-confined trace context of one in-flight op.
type opCtx struct {
	tr    *tracer
	op    uint64
	root  int32     // the op's root span
	rpc   int32     // the op's rpc.call span
	began time.Time // when the rpc call was issued
	toks  []uint64
}

// tracedRT is the client's rt.Runtime: it forwards to the wire runtime
// and, for traced ops, times every Send (codec encode plus transport
// Send) and maps request tokens back to the op that sent them, so
// retries and replies land in the op's trace. Loop-confined.
type tracedRT struct {
	*wire.Runtime
	cur    *opCtx
	tokens map[uint64]*opCtx
}

func newTracedRT(r *wire.Runtime) *tracedRT {
	return &tracedRT{Runtime: r, tokens: make(map[uint64]*opCtx)}
}

// Send implements rt.Runtime.
func (r *tracedRT) Send(to types.Addr, nic int, typ string, payload any) {
	tok := tokenOf(payload)
	ctx := r.cur
	if ctx == nil {
		ctx = r.tokens[tok]
	}
	if ctx == nil || ctx.tr == nil {
		r.Runtime.Send(to, nic, typ, payload)
		return
	}
	start := time.Now()
	r.Runtime.Send(to, nic, typ, payload)
	ctx.tr.add(ctx.op, ctx.rpc, spanSend, start, time.Now())
	if _, known := r.tokens[tok]; !known && tok != 0 {
		r.tokens[tok] = ctx
		ctx.toks = append(ctx.toks, tok)
	}
}

// handle runs a reply through h, as a client.handle span of its op.
func (r *tracedRT) handle(msg types.Message, h func(types.Message) bool) {
	ctx := r.tokens[tokenOf(msg.Payload)]
	if ctx == nil {
		h(msg)
		return
	}
	start := time.Now()
	h(msg)
	ctx.tr.add(ctx.op, ctx.rpc, spanHandle, start, time.Now())
}

// tokenOf extracts the rpc correlation token of a bulletin or PWS
// request or reply payload (0 for anything else).
func tokenOf(p any) uint64 {
	switch v := p.(type) {
	case bulletin.GetReq:
		return v.Token
	case bulletin.QueryReq:
		return v.Token
	case bulletin.PutReq:
		return v.Token
	case bulletin.GetAck:
		return v.Token
	case bulletin.QueryAck:
		return v.Token
	case bulletin.PutAck:
		return v.Token
	case pws.SubmitReq:
		return v.Token
	case pws.SubmitAck:
		return v.Token
	case pws.JobStatReq:
		return v.Token
	case pws.JobStatAck:
		return v.Token
	case pws.StatReq:
		return v.Token
	case pws.StatAck:
		return v.Token
	}
	return 0
}

// issueOp runs the generator half of one op: the op's root and gen.wait
// spans (nothing when tr is nil), then the hand-off to the client loop,
// where call runs with the op's trace context installed on the runtime.
// call returns when the op's rpc has been issued; the op's done callback
// must call complete.
func issueOp(rtc *tracedRT, op uint64, due time.Time, tr *tracer, call func(ctx *opCtx)) {
	woke := time.Now()
	root := tr.open(op, -1, spanOp, due)
	tr.add(op, root, spanGen, due, woke)
	submitted := time.Now()
	rtc.Do(func() {
		inLoop := time.Now()
		tr.add(op, root, spanLoop, submitted, inLoop)
		ctx := &opCtx{tr: tr, op: op, root: root, began: inLoop,
			rpc: tr.open(op, root, spanRPC, inLoop)}
		rtc.cur = ctx
		call(ctx)
		rtc.cur = nil
	})
}

// complete closes an op's spans and reports its rpc call time in ms; it
// runs in the client loop, from the op's done callback.
func (r *tracedRT) complete(ctx *opCtx) float64 {
	now := time.Now()
	ctx.tr.close(ctx.rpc, now)
	ctx.tr.close(ctx.root, now)
	for _, t := range ctx.toks {
		delete(r.tokens, t)
	}
	return float64(now.Sub(ctx.began).Nanoseconds()) / 1e6
}
