package noded_test

// Resilient-RPC chaos acceptance (real UDP loopback, wall clock; skipped
// under -short): a four-node two-partition cluster carries continuous
// client traffic through the resilient call layer while the chaos injector
// blackholes the access point's lanes and the access point itself is
// killed mid-call. The client must see zero failed calls: retries within
// the deadline budget ride out the lane outage, the circuit breaker opens
// during it and recovers through a half-open trial after the heal, and the
// per-attempt target re-resolution follows the GSD migration to the backup
// node. A final phase proves exactly-once for non-idempotent PPM job
// loads: a delay rule forces an application-level retry with the same
// token and the PPM daemon's request dedup replays the original ack
// instead of double-starting the job.

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bulletin"
	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/noded"
	"repro/internal/opshttp"
	"repro/internal/ppm"
	"repro/internal/rpc"
	"repro/internal/simhost"
	"repro/internal/types"
	"repro/internal/watchd"
	"repro/internal/wire"
)

// chaosClient is the client-traffic generator: it queries partition 0's
// data bulletin every period through a resilient caller whose target
// re-resolves against the local watch daemon's current GSD announcement,
// so a retry issued after a migration lands on the new access point.
type chaosClient struct {
	h      *simhost.Handle
	opts   rpc.Options
	bul    *bulletin.Client
	caller *rpc.Caller

	ok      atomic.Int64
	failed  atomic.Int64
	loadOK  atomic.Int64
	loadErr atomic.Int64
}

func (p *chaosClient) Service() string { return "chaoscli" }
func (p *chaosClient) OnStop()         {}

func (p *chaosClient) Start(h *simhost.Handle) {
	p.h = h
	target := func() (types.Addr, bool) {
		if wd, ok := h.Host().Proc(types.SvcWD).(*watchd.WD); ok {
			return types.Addr{Node: wd.GSDNode(), Service: types.SvcDB}, true
		}
		return types.Addr{}, false
	}
	p.bul = bulletin.NewClient(h, p.opts, target)
	p.caller = rpc.NewCaller(h, p.opts)
	h.Every(300*time.Millisecond, p.query)
}

func (p *chaosClient) query() {
	p.bul.Query(bulletin.ScopePartition, func(ack bulletin.QueryAck, ok bool) {
		if ok {
			p.ok.Add(1)
		} else {
			p.failed.Add(1)
		}
	})
}

// loadJob loads a non-idempotent job onto a node's PPM through the
// resilient caller; retries reuse the token, so the PPM dedups them.
func (p *chaosClient) loadJob(node types.NodeID, job ppm.JobSpec) {
	p.caller.Go(rpc.Call{
		Targets: func() []types.Addr {
			return []types.Addr{{Node: node, Service: types.SvcPPM}}
		},
		Send: func(token uint64, to types.Addr) {
			p.h.Send(to, types.AnyNIC, ppm.MsgLoad, ppm.LoadReq{Token: token, Job: job})
		},
		Done: func(payload any, err error) {
			if err == nil && payload.(ppm.LoadAck).OK {
				p.loadOK.Add(1)
			} else {
				p.loadErr.Add(1)
			}
		},
	})
}

func (p *chaosClient) Receive(msg types.Message) {
	if p.bul.Handle(msg) {
		return
	}
	if msg.Type == ppm.MsgLoadAck {
		if ack, ok := msg.Payload.(ppm.LoadAck); ok {
			p.caller.ResolveFrom(ack.Token, msg.From, ack)
		}
	}
}

var _ simhost.Process = (*chaosClient)(nil)

func TestResilientRPCSurvivesChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket integration test; skipped under -short")
	}
	const planes = 2
	// p0 = {0 server, 1 backup}, p1 = {2 server, 3 backup}. The client
	// runs on node 1 — partition 0's backup — so its watch daemon tracks
	// partition 0's GSD and the access point is remote until it migrates
	// here.
	topo, err := config.Uniform(2, 2, planes)
	if err != nil {
		t.Fatal(err)
	}
	params, costs := fastAdminParams(), fastAdminCosts()

	injectors := make(map[types.NodeID]*chaos.Injector)
	transports, book := bindCluster(t, topo.NumNodes(), planes, func(id types.NodeID) []wire.Option {
		inj := chaos.New(900 + int64(id))
		injectors[id] = inj
		return []wire.Option{
			wire.WithOutboundFilter(inj.Outbound()),
			wire.WithInboundFilter(inj.Inbound()),
			wire.WithRetransmit(60*time.Millisecond, 4),
		}
	})
	nodes := make([]*noded.Node, len(transports))
	for i, tr := range transports {
		tr.SetBook(book)
		n, err := noded.Start(tr.Node(), topo,
			noded.WithParams(params), noded.WithCosts(costs), noded.WithTransport(tr),
			noded.WithAdmin("127.0.0.1:0"))
		if err != nil {
			t.Fatalf("start node %d: %v", i, err)
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Stop()
			}
		}
	}()
	targets := make(map[types.NodeID]string, len(nodes))
	for _, n := range nodes {
		targets[n.Transport().Node()] = n.AdminAddr()
	}
	client := &http.Client{Timeout: time.Second}
	ctx := context.Background()

	waitFor(t, "all nodes ready with one leader", 30*time.Second, func() bool {
		for id := range targets {
			if code, _ := get(t, client, targets[id], "/readyz"); code != http.StatusOK {
				return false
			}
		}
		return leaders(opshttp.Gather(ctx, targets, time.Second)) == 1
	})

	// The client's calls share node 1's breakers and metrics registry, so
	// breaker state shows on /statusz and retries in phoenix_rpc_* series.
	// The generous budget lets one call span a whole failover; the short
	// attempt timer is what converts a silent access point into retries.
	cli := &chaosClient{opts: rpc.Options{
		Budget:   45 * time.Second,
		Policy:   &rpc.Policy{MaxAttempts: 200, Attempt: 500 * time.Millisecond, Backoff: 100 * time.Millisecond, BackoffMax: time.Second},
		Breakers: nodes[1].Breakers(),
		Metrics:  nodes[1].Transport().Metrics(),
	}}
	nodes[1].Do(func() {
		if _, err := nodes[1].Host().Spawn(cli); err != nil {
			t.Errorf("spawn client: %v", err)
		}
	})
	waitFor(t, "baseline client traffic", 20*time.Second, func() bool {
		return cli.ok.Load() >= 3
	})

	// Phase 1 — lane outage: blackhole every lane between the client's
	// node and the access point. In-flight and new queries must retry into
	// the outage; the wire's exhausted retransmissions report a peer fault
	// that opens node 0's breaker, and further attempts are held back
	// without consuming the budget's attempts.
	injectors[1].Block(0)
	waitFor(t, "breaker opens during the lane outage", 20*time.Second, func() bool {
		return nodes[1].Breakers().OpenCount() > 0
	})
	if got := cli.failed.Load(); got != 0 {
		t.Fatalf("client failures during outage = %d, want 0 (budget must absorb it)", got)
	}

	// Heal. The open breaker cools down, admits a single half-open trial,
	// and the trial's success closes it — the only path back to closed —
	// after which the queued and new calls drain with zero failures.
	time.Sleep(time.Second)
	injectors[1].Heal()
	waitFor(t, "breaker closes after heal (half-open trial success)", 30*time.Second, func() bool {
		bs := nodes[1].Breakers()
		return bs.State(rpc.BreakerKey{Node: 0, Service: rpc.NodeService}) == rpc.StateClosed &&
			bs.State(rpc.BreakerKey{Node: 0, Service: types.SvcDB}) == rpc.StateClosed &&
			bs.OpenCount() == 0
	})
	okAfterHeal := cli.ok.Load()
	waitFor(t, "client traffic resumed", 20*time.Second, func() bool {
		return cli.ok.Load() > okAfterHeal+3
	})
	if got := cli.failed.Load(); got != 0 {
		t.Fatalf("client failures after heal = %d, want 0", got)
	}

	// Phase 2 — access-point kill mid-call: stop node 0 abruptly with
	// queries in flight. The survivors migrate partition 0 to node 1, the
	// watch daemon's announce moves the client's target, and the pending
	// retries land on the new access point — still zero visible failures.
	okBeforeKill := cli.ok.Load()
	nodes[0].Stop()
	nodes[0] = nil
	waitFor(t, "client follows the migration to the backup", 60*time.Second, func() bool {
		var gsdNode types.NodeID
		nodes[1].Do(func() {
			if wd, ok := nodes[1].Host().Proc(types.SvcWD).(*watchd.WD); ok {
				gsdNode = wd.GSDNode()
			}
		})
		return gsdNode == 1 && cli.ok.Load() > okBeforeKill+5
	})
	if got := cli.failed.Load(); got != 0 {
		t.Fatalf("client failures across the access-point kill = %d, want 0", got)
	}

	// The retries must be visible on the node's operational surfaces.
	st, err := opshttp.Fetch(ctx, client, targets[1])
	if err != nil {
		t.Fatalf("fetch node 1 status: %v", err)
	}
	if st.RPC.Retries == 0 {
		t.Fatal("/statusz reports zero rpc retries after two chaos phases")
	}
	if code, body := get(t, client, targets[1], "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "phoenix_rpc_retries_total") {
		t.Fatalf("/metrics missing phoenix_rpc_retries_total (code %d)", code)
	} else if strings.Contains(body, "phoenix_rpc_retries_total 0\n") {
		t.Fatal("phoenix_rpc_retries_total still zero")
	}

	// Phase 3 — exactly-once for non-idempotent loads: delaying everything
	// inbound from node 3 beyond the attempt timer forces the load's ack
	// past the retry, so the same-token request reaches the PPM twice. The
	// dedup cache must replay the first ack rather than start a second job.
	injectors[1].AddRule(chaos.Rule{Peer: 3, Plane: chaos.AnyPlane, Dir: chaos.DirIn, Delay: 700 * time.Millisecond})
	nodes[1].Do(func() {
		cli.loadJob(3, ppm.JobSpec{ID: 777, Name: "exactly-once", Duration: time.Hour})
	})
	waitFor(t, "delayed load ack resolves the call", 20*time.Second, func() bool {
		return cli.loadOK.Load() == 1
	})
	var jobs int
	var deduped uint64
	nodes[3].Do(func() {
		if d, ok := nodes[3].Host().Proc(types.SvcPPM).(*ppm.Daemon); ok {
			jobs, deduped = d.Jobs(), d.Deduped
		}
	})
	if jobs != 1 {
		t.Fatalf("PPM tracks %d jobs, want exactly 1 (retried load must not double-start)", jobs)
	}
	if deduped == 0 {
		t.Fatal("PPM dedup cache never replayed — the retry was not exercised")
	}
	if got := cli.loadErr.Load(); got != 0 {
		t.Fatalf("load errors = %d, want 0", got)
	}
}
