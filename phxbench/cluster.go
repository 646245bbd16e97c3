package main

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/noded"
	"repro/internal/pws"
	"repro/internal/simhost"
	"repro/internal/types"
	"repro/internal/wire"
)

// planes is the NIC count of every booted cluster: two, as in the
// paper's testbed and the repo's loopback integration tests.
const planes = 2

// fastParams are the wall-clock timing constants of the noded loopback
// integration tests: fast enough that a four-node cluster is ready in
// about half a second, slow enough that two cores keep up.
func fastParams() config.Params {
	p := config.FastParams()
	p.HeartbeatInterval = 150 * time.Millisecond
	p.HeartbeatGrace = 300 * time.Millisecond
	p.MetaHeartbeatInterval = 150 * time.Millisecond
	p.PartitionProbeTimeout = 500 * time.Millisecond
	p.MetaProbeTimeout = 400 * time.Millisecond
	p.LocalCheckPeriod = 250 * time.Millisecond
	p.DetectorSampleInterval = 250 * time.Millisecond
	p.RPCTimeout = 2 * time.Second
	return p
}

func fastCosts() simhost.Costs {
	c := simhost.DefaultCosts()
	c.ExecLatency = map[string]time.Duration{types.SvcGSD: 50 * time.Millisecond}
	c.DefaultExec = 20 * time.Millisecond
	c.AgentProbeDelay = 20 * time.Millisecond
	c.AgentExecDelay = 2 * time.Millisecond
	return c
}

// rig is one booted in-process cluster: nodes[i] runs on trs[i], and the
// last transport is the client's own book slot (the superset-book
// arrangement phoenix-call uses), with its own metrics registry.
type rig struct {
	topo    *config.Topology
	nodes   []*noded.Node
	trs     []*wire.Transport
	client  *wire.Transport
	startMs float64 // noded.Start of every node, back to back
}

// bindTransports binds n ephemeral loopback transports and attaches one
// book that names all of them.
func bindTransports(n, nplanes int) ([]*wire.Transport, error) {
	trs := make([]*wire.Transport, 0, n)
	book := wire.NewBook()
	for i := 0; i < n; i++ {
		tr, err := wire.New(types.NodeID(i), nil,
			wire.WithPlanes(nplanes), wire.WithMetrics(metrics.NewRegistry()))
		if err != nil {
			closeAll(trs)
			return nil, fmt.Errorf("bind transport %d: %w", i, err)
		}
		trs = append(trs, tr)
		for p, ep := range tr.Endpoints() {
			if err := book.Add(tr.Node(), p, ep); err != nil {
				closeAll(trs)
				return nil, err
			}
		}
	}
	for _, tr := range trs {
		tr.SetBook(book)
	}
	return trs, nil
}

func closeAll(trs []*wire.Transport) {
	for _, tr := range trs {
		tr.Close()
	}
}

// bootRig binds the cluster's and the client's transports and starts
// every node. withPWS makes partition 0 host the PWS scheduler.
func bootRig(topo *config.Topology, withPWS bool) (*rig, error) {
	n := topo.NumNodes()
	trs, err := bindTransports(n+1, topo.NICs)
	if err != nil {
		return nil, err
	}
	params := fastParams()
	r := &rig{topo: topo, trs: trs[:n], client: trs[n]}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		opts := []noded.Option{noded.WithParams(params), noded.WithCosts(fastCosts()),
			noded.WithTransport(trs[i])}
		if withPWS {
			opts = append(opts, noded.WithPWS(pws.Spec{
				Partition:   0,
				Pools:       pws.TopologyPools(topo),
				SchedPeriod: params.LocalCheckPeriod,
				UseBulletin: true,
				Overload:    pws.OverloadFromParams(params),
			}))
		}
		node, err := noded.Start(trs[i].Node(), topo, opts...)
		if err != nil {
			r.stop()
			closeAll(trs[i:n])
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		r.nodes = append(r.nodes, node)
	}
	r.startMs = msSince(t0)
	return r, nil
}

func (r *rig) stop() {
	for _, n := range r.nodes {
		n.Stop()
	}
	if r.client != nil {
		r.client.Close()
	}
}

// allTransports lists the cluster's and the client's transports.
func (r *rig) allTransports() []*wire.Transport {
	return append(append([]*wire.Transport(nil), r.trs...), r.client)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
