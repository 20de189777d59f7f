package main

// The campaign probe measures the campaign layers, which the figures
// workload never reaches: in figures' traced run it folds one fault
// campaign and one diffuzz campaign at a time over nproc workers,
// composed from campaign's public functions the way campaign.Fold
// composes them (expansion, one warm-prefix Runner per worker,
// index-ordered merge, encoding), with a span around each call. Cells
// are always computed; nothing is read from a cache. As a timed
// workload of its own its throughput moved by half with the shared
// host's speed between runs (README.md), too much to gate on.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/report"
	"repro/internal/runner"
)

var campaignLayers = []string{
	"campaign.expand_ms", "engine.fork_ms", "campaign.fault_cell_us", "campaign.diffuzz_cell_us",
	"campaign.fork_reuse_ratio", "campaign.merge_us", "report.encode_campaign_ms", "runner.busy_share",
}

const (
	campaignFolds = 6  // traced ops, each folding both campaigns
	faultSeeds    = 20 // seeds per fault × intensity step: 400 cells
	diffuzzSeeds  = 40 // seeds per diffuzz scenario class: 200 cells
	// campaignOps numbers the probe's ops apart from the workload's.
	campaignOps = 1 << 20
)

// foldStats is what the traced folds add to the layer accounting that
// spans alone cannot give.
type foldStats struct {
	busy      time.Duration // summed cell time
	wall      time.Duration // time of the cell fan-outs
	forks     int           // fault cells that paid a prefix fork
	faultCell int
}

// probeCampaign derives a fault and a diffuzz campaign from the seed,
// folds each once on one worker as the oracle's reference and once
// untraced as a warm-up, then folds both campaignFolds times with
// spans, checks every aggregate against its reference, and records the
// campaign layers' metrics.
func probeCampaign(e *env, m map[string]float64) error {
	base := e.seed*1000 + 1
	specs := [2]campaign.Spec{
		{Seeds: campaign.SeedRange{Base: base, Count: faultSeeds}},
		{Kind: campaign.KindDiffuzz, Seeds: campaign.SeedRange{Base: base, Count: diffuzzSeeds}},
	}
	var ref [2][32]byte
	for k, spec := range specs {
		agg, err := campaign.Fold(context.Background(), spec, 1)
		if err != nil {
			return err
		}
		body, err := report.EncodeCampaign(agg)
		if err != nil {
			return err
		}
		ref[k] = sha256.Sum256(body)
	}
	fold := func(root sp, stats *foldStats) error {
		for k, spec := range specs {
			body, err := foldCampaign(spec, e.nproc, root, stats)
			if err != nil {
				return err
			}
			if sha256.Sum256(body) != ref[k] {
				return fmt.Errorf("campaign %d: aggregate differs from the workers=1 fold", k)
			}
		}
		return nil
	}
	if err := fold(sp{}, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var fs foldStats
	for i := 0; i < campaignFolds; i++ {
		root := e.tr.root(campaignOps+i, time.Now())
		err := fold(root, &fs)
		root.end()
		if err != nil {
			return err
		}
	}
	ts := e.tr.summarizeFrom(campaignOps)
	ops := float64(max(ts.ops, 1))
	m["campaign.expand_ms"] = ms(ts.layer("campaign.expand").self) / ops
	m["report.encode_campaign_ms"] = ms(ts.layer("report.encode_campaign").self) / ops
	mean := func(name string) float64 {
		l := ts.layer(name)
		return us(l.self) / float64(max(l.count, 1))
	}
	m["campaign.fault_cell_us"] = mean("campaign.fault_cell")
	m["campaign.diffuzz_cell_us"] = mean("campaign.diffuzz_cell")
	m["campaign.merge_us"] = mean("campaign.merge")
	// A forking cell pays the prefix run and snapshot on top of the
	// suffix every reusing cell pays.
	m["engine.fork_ms"] = (mean("campaign.fault_cell_fork") - mean("campaign.fault_cell")) / 1000
	m["campaign.fork_reuse_ratio"] = ratio(fs.faultCell-fs.forks, fs.faultCell)
	m["runner.busy_share"] = ratio(fs.busy, fs.wall*time.Duration(e.nproc))
	return nil
}

// cellWorker is one pool worker's Runner plus the prefix group it last
// forked, so the benchmark can tell which cells paid for a fork.
type cellWorker struct {
	r     *campaign.Runner
	group string
}

type cellOut struct {
	res  *campaign.CellResult
	fork bool
	dur  time.Duration
}

// foldCampaign is campaign.Fold with spans; it returns the encoded
// aggregate and, when stats is set, adds the fold's cell accounting.
func foldCampaign(spec campaign.Spec, workers int, s sp, stats *foldStats) ([]byte, error) {
	exp := s.child("campaign.expand")
	agg, err := campaign.NewAggregate(spec)
	if err != nil {
		exp.end()
		return nil, err
	}
	cells := agg.Spec.Expand()
	specs := make([]campaign.CellSpec, len(cells))
	for i, c := range cells {
		specs[i] = agg.Spec.CellSpec(c)
	}
	exp.end()

	t0 := time.Now()
	outs, err := runner.MapCtxPool(context.Background(), workers, len(specs),
		func() *cellWorker { return &cellWorker{r: campaign.NewRunner()} },
		func(w *cellWorker, i int) (cellOut, error) {
			cs := specs[i]
			name, fork := "campaign.diffuzz_cell", false
			if cs.Kind != campaign.KindDiffuzz {
				gk := cs.GroupKey()
				fork = gk != w.group
				w.group = gk
				name = "campaign.fault_cell"
				if fork {
					name = "campaign.fault_cell_fork"
				}
			}
			c := s.child(name)
			start := time.Now()
			res, err := w.r.Run(cs)
			c.end()
			return cellOut{res, fork, time.Since(start)}, err
		})
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)

	for i, o := range outs {
		mg := s.child("campaign.merge")
		err := agg.MergeCell(i, o.res)
		mg.end()
		if err != nil {
			return nil, err
		}
	}
	enc := s.child("report.encode_campaign")
	body, err := report.EncodeCampaign(agg)
	enc.end()
	if err != nil {
		return nil, err
	}
	if stats != nil {
		stats.wall += wall
		for _, o := range outs {
			stats.busy += o.dur
			if o.res.Spec.Kind != campaign.KindDiffuzz {
				stats.faultCell++
				if o.fork {
					stats.forks++
				}
			}
		}
	}
	return body, nil
}
