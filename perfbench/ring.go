package main

// The ring probe measures internal/cluster, which no benchmark workload
// reaches on its own: a 3-node ring in one process (cluster.New and
// serve.New on loopback listeners, one data dir per node) takes
// distinct generator campaigns through client.NewCluster's
// RunCampaign, one after another. It runs in the serve workload's
// traced run and feeds only per-layer metrics. As a timed workload of
// its own its throughput swung by a fifth between runs on a shared
// 2-CPU host (README.md), too much to gate on.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

var ringLayers = []string{
	"cluster.cells_dispatched", "cluster.dispatch_share", "cluster.cells_reowned", "cluster.fetch_ms",
	"cluster.dispatch_ms", "client.hedged", "client.failovers", "ring.campaign_s",
}

const (
	ringNodes     = 3
	ringCampaigns = 4  // timed campaigns after the warm-up
	ringSeeds     = 15 // seeds per fault × intensity step: 300 cells per campaign
	// ringSuffix is each cell's suffix length. Long suffixes make a
	// cell's compute outweigh its journal and store writes, whose time
	// on a shared disk swung ring throughput between runs.
	ringSuffix = 1000
)

type ring struct {
	nodes []*daemon
	cls   []*cluster.Cluster
	cc    *client.ClusterClient
	peers *peerTransport // every node's transport to the others
}

// ringSpec is campaign k of the probe (k = 0 is the warm-up),
// normalized. Seed ranges never overlap, so every cell of every
// campaign is computed fresh.
func (e *env) ringSpec(k int) campaign.Spec {
	sp := campaign.Spec{
		Seeds:        campaign.SeedRange{Base: (e.seed*100_000+uint64(k))*1000 + 1, Count: ringSeeds},
		SuffixEvents: ringSuffix,
	}
	if err := sp.Normalize(); err != nil {
		panic(fmt.Sprintf("ring campaign spec: %v", err)) // the spec is fixed above; only a bug gets here
	}
	return sp
}

// probeRing brings the ring up, runs a warm-up and ringCampaigns timed
// campaigns, checks each final aggregate against the local
// campaign.Fold bytes, and records the cluster's per-layer metrics.
func probeRing(e *env, m map[string]float64) error {
	rg, err := ringSetup(e, filepath.Join(e.workdir, "ring"))
	if err != nil {
		return err
	}
	defer func() { _ = rg.stop() }()

	// Cells a coordinator dispatched to their owner, and cells it had to
	// compute itself after a dispatch failed, summed over the ring.
	counts := func() (dispatched, reowned int64) {
		for _, d := range rg.nodes {
			dispatched += d.reg.Counter("repro_cluster_cells_dispatched_total").Value()
			reowned += d.reg.Counter("repro_cluster_cells_reowned_total").Value()
		}
		return dispatched, reowned
	}
	dispatched0, reowned0 := counts()
	hedged0, failovers0 := rg.cc.Hedged(), rg.cc.Failovers()
	var dispatch []time.Duration
	rg.peers.setRecord(func(name string, d time.Duration) {
		if name == "cluster.dispatch" {
			dispatch = append(dispatch, d)
		}
	})

	var lat []time.Duration
	cells := 0
	for k := 1; k <= ringCampaigns; k++ {
		spec := e.ringSpec(k)
		t0 := time.Now()
		body, err := rg.cc.RunCampaign(context.Background(), spec, nil)
		if err != nil {
			return err
		}
		lat = append(lat, time.Since(t0))
		if err := checkFold(spec, e.nproc, sha256.Sum256(body)); err != nil {
			return err
		}
		cells += spec.Cells()
	}
	rg.peers.setRecord(nil)

	dispatched, reowned := counts()
	m["cluster.cells_dispatched"] = float64(dispatched - dispatched0)
	m["cluster.dispatch_share"] = ratio(int(dispatched-dispatched0), cells)
	m["cluster.cells_reowned"] = float64(reowned - reowned0)
	m["client.hedged"] = float64(rg.cc.Hedged() - hedged0)
	m["client.failovers"] = float64(rg.cc.Failovers() - failovers0)
	m["ring.campaign_s"] = mean(lat).Seconds()
	m["cluster.dispatch_ms"] = ms(mean(dispatch))
	fetch, err := rg.probeFetch(e)
	if err != nil {
		return err
	}
	m["cluster.fetch_ms"] = ms(fetch)
	return nil
}

// checkFold folds spec locally and compares its encoding with sum: the
// clusterkill oracle, a ring aggregate equals the local fold's bytes.
func checkFold(spec campaign.Spec, workers int, sum [32]byte) error {
	agg, err := campaign.Fold(context.Background(), spec, workers)
	if err != nil {
		return err
	}
	body, err := report.EncodeCampaign(agg)
	if err != nil {
		return err
	}
	if sha256.Sum256(body) != sum {
		return fmt.Errorf("campaign seeds %d+%d: ring aggregate differs from the local fold", spec.Seeds.Base, spec.Seeds.Count)
	}
	return nil
}

// ringSetup brings three nodes up on fresh data dirs, waits until each
// is ready, and runs one untimed warm-up campaign of full size: a ring
// process runs its first few campaigns up to twice as slowly as later
// ones.
func ringSetup(e *env, dir string) (*ring, error) {
	rg := &ring{peers: &peerTransport{base: &http.Transport{MaxIdleConnsPerHost: 32}}}
	lns := make([]net.Listener, ringNodes)
	members := make([]cluster.Node, ringNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		members[i] = cluster.Node{Name: fmt.Sprintf("n%d", i+1), URL: "http://" + ln.Addr().String()}
	}
	peers := &http.Client{Transport: rg.peers}
	var nodes []client.ClusterNode
	for i, ln := range lns {
		cl, err := cluster.New(cluster.Config{Self: members[i].Name, Members: members, HTTP: peers})
		if err != nil {
			ln.Close()
			_ = rg.stop()
			return nil, err
		}
		opts := serve.Options{Workers: e.nproc, QueueSize: 4096, DataDir: filepath.Join(dir, members[i].Name), Cluster: cl}
		d, err := startDaemon(opts, ln, nil)
		if err != nil {
			ln.Close()
			_ = rg.stop()
			return nil, err
		}
		rg.nodes = append(rg.nodes, d)
		rg.cls = append(rg.cls, cl)
		nodes = append(nodes, client.ClusterNode{Name: members[i].Name, URL: members[i].URL})
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	for _, d := range rg.nodes {
		if err := d.waitReady(hc); err != nil {
			_ = rg.stop()
			return nil, err
		}
	}
	cc, err := client.NewCluster(client.ClusterOptions{Nodes: nodes, Template: client.Options{HTTP: hc}})
	if err != nil {
		_ = rg.stop()
		return nil, err
	}
	rg.cc = cc
	warm := e.ringSpec(0)
	body, err := cc.RunCampaign(context.Background(), warm, nil)
	if err == nil {
		err = checkFold(warm, e.nproc, sha256.Sum256(body))
	}
	if err != nil {
		_ = rg.stop()
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	return rg, nil
}

func (rg *ring) stop() error {
	var first error
	for _, d := range rg.nodes {
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	rg.nodes = nil
	return first
}

// probeFetch stores results on node 1 only and times
// cluster.FetchResult for them from node 2, which holds none of them.
// It returns the median fetch time.
func (rg *ring) probeFetch(e *env) (time.Duration, error) {
	n1, err := client.New(client.Options{BaseURL: rg.nodes[0].url})
	if err != nil {
		return 0, err
	}
	var times []time.Duration
	for i := 0; i < 20; i++ {
		f := figSpec{Kind: "fig6a", Seed: e.seed*1_000_000 + 500_000 + uint64(i), Wait: true}
		res, err := n1.Submit(context.Background(), f)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		body, from, ok := rg.cls[1].FetchResult(context.Background(), res.JobKey)
		times = append(times, time.Since(t0))
		if !ok || from != "n1" || sha256.Sum256(body) != sha256.Sum256(res.Body) {
			return 0, fmt.Errorf("peer fetch of %s: got ok=%v from %q", res.JobKey, ok, from)
		}
	}
	return percentile(times, 0.5), nil
}

// peerTransport times each call a node makes to a peer: cell
// dispatches and result fetches. record, when set, receives each call's
// kind and duration under mu.
type peerTransport struct {
	base   http.RoundTripper
	mu     sync.Mutex
	record func(name string, d time.Duration)
}

func (p *peerTransport) setRecord(f func(name string, d time.Duration)) {
	p.mu.Lock()
	p.record = f
	p.mu.Unlock()
}

func (p *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "cluster.peer"
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/experiments":
		name = "cluster.dispatch"
	case strings.HasPrefix(req.URL.Path, "/v1/peer/results/"):
		name = "cluster.fetch"
	}
	t0 := time.Now()
	resp, err := p.base.RoundTrip(req)
	p.mu.Lock()
	if p.record != nil {
		p.record(name, time.Since(t0))
	}
	p.mu.Unlock()
	return resp, err
}
