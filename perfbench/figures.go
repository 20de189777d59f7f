package main

// The figures workload is the paper's own evaluation in a closed loop:
// Fig. 6a/b/c at 5,000 IRQs per load, Fig. 7 on the ECU trace with the
// δ⁻ monitor, and the §6.2 overhead table. An untraced op calls the
// program's entry points (experiments.Fig6, Fig7, Overhead and the
// report encoders), so the end-to-end metrics time the program's own
// code. A traced op composes Fig. 6 from the layers' public functions
// (workload generation, arena build, hv run, core report, tracerec
// summary, report encoding) the way experiments.Fig6Ctx does, so each
// call can carry a span. The oracle holds both kinds of op to the bytes
// of a cold core.Run reference. No HTTP, store or fork is involved.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/hv"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/simtime"
	"repro/internal/tracerec"
	"repro/internal/workload"
)

var figuresLayers = []string{
	"workload.gen_ms", "engine.build_ms", "hv.run_ms", "des.events", "hv.ns_per_event",
	"core.report_ms", "tracerec.summarize_ms", "report.encode_ms",
	"experiments.fig7_ms", "experiments.overhead_ms",
}

// figuresSeeds is the length of the seed cycle. It is odd so that the
// traced and the untraced ops of a traced run both visit every seed.
const figuresSeeds = 3

var fig6Variants = []experiments.Fig6Variant{experiments.Fig6a, experiments.Fig6b, experiments.Fig6c}

// figDocs is one op's output: Fig. 6a, 6b, 6c, Fig. 7 and the overhead
// table, encoded.
type figDocs [5][]byte

type figOp struct {
	docs figDocs
	irqs int
	// events counts the DES events of the Fig. 6 runs. Only a traced op
	// can count them; an untraced one leaves 0.
	events uint64
}

type figState struct {
	seeds  []uint64
	ref    [][5][32]byte // SHA-256 of the cold reference documents, per seed
	events []uint64      // DES events per seed, pinned by the first op that ran it
}

func runFigures(e *env) (*outcome, error) {
	st, setupS, setups, err := repeatSetup(setupRuns, nil, func(int) (*figState, error) { return figuresSetup(e) }, func(*figState) {})
	if err != nil {
		return nil, err
	}
	var irqs []float64
	var lat []time.Duration
	l := e.closedLoop(func(i int, s sp) error {
		j := i % len(st.seeds)
		t0 := time.Now()
		op, err := figuresOp(e, st.seeds[j], s)
		if err == nil {
			err = st.check(j, op)
		}
		if err != nil {
			return err
		}
		lat = append(lat, time.Since(t0))
		irqs = append(irqs, float64(op.irqs))
		return nil
	})
	m := map[string]float64{
		"setup_s":    setupS,
		"irqs_per_s": medianRate(irqs, lat),
	}
	l.common(e, m)
	if e.tr != nil {
		ts := e.tr.summarize()
		perOp := func(name string) float64 { return ms(ts.layer(name).self) / float64(max(ts.ops, 1)) }
		for _, name := range []string{"workload.gen", "engine.build", "hv.run", "core.report", "tracerec.summarize", "report.encode", "experiments.fig7", "experiments.overhead"} {
			m[name+"_ms"] = perOp(name)
		}
		var events uint64
		for _, n := range st.events {
			events += n
		}
		m["des.events"] = float64(events)
		// Per-op mean over the cycle, so the ratio uses the same ops the
		// hv.run spans cover.
		m["hv.ns_per_event"] = float64(ts.layer("hv.run").self.Nanoseconds()) / float64(max(ts.ops, 1)) / (float64(events) / float64(len(st.seeds)))
		if err := probeCampaign(e, m); err != nil {
			return nil, fmt.Errorf("campaign probe: %w", err)
		}
	}
	meta := l.meta(setups)
	meta["seeds"] = st.seeds
	return &outcome{attempted: l.ops, failed: l.failed, metrics: m, meta: meta}, nil
}

// figuresSetup derives the seed cycle, computes the cold reference
// documents for every seed, and runs one untimed warm-up op.
func figuresSetup(e *env) (*figState, error) {
	st := &figState{}
	for j := 0; j < figuresSeeds; j++ {
		st.seeds = append(st.seeds, e.seed*figuresSeeds+uint64(j)+1)
	}
	st.ref = make([][5][32]byte, len(st.seeds))
	st.events = make([]uint64, len(st.seeds))
	for j, seed := range st.seeds {
		docs, err := figuresReference(seed)
		if err != nil {
			return nil, err
		}
		for k, d := range docs {
			st.ref[j][k] = sha256.Sum256(d)
		}
	}
	op, err := figuresOp(e, st.seeds[0], sp{})
	if err != nil {
		return nil, err
	}
	if err := st.check(0, op); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// check is the op's oracle: every document matches the reference
// byte for byte, and the DES event count of a traced op repeats exactly
// per seed.
func (st *figState) check(j int, op *figOp) error {
	for k, d := range op.docs {
		if sha256.Sum256(d) != st.ref[j][k] {
			return fmt.Errorf("seed %d: document %d differs from the cold reference", st.seeds[j], k)
		}
	}
	if op.events == 0 {
		return nil
	}
	if st.events[j] == 0 {
		st.events[j] = op.events
	} else if st.events[j] != op.events {
		return fmt.Errorf("seed %d: %d DES events, earlier ops fired %d", st.seeds[j], op.events, st.events[j])
	}
	return nil
}

func fig6Config(seed uint64, workers int) experiments.Fig6Config {
	cfg := experiments.DefaultFig6()
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg
}

func fig7Config(seed uint64, workers int) experiments.Fig7Config {
	cfg := experiments.DefaultFig7()
	cfg.ECU.Seed = seed
	cfg.Workers = workers
	return cfg
}

// fig6Load is the scenario of one Fig. 6 load, built the way
// experiments.Fig6Ctx builds it. The oracle holds it to that: the cold
// reference built from it must match every untraced op's bytes.
func fig6Load(variant experiments.Fig6Variant, cfg experiments.Fig6Config, li int) (core.Scenario, simtime.Duration) {
	sc := core.Scenario{Policy: cfg.Policy, Mode: hv.Original}
	names := []string{"app1", "app2", "housekeeping"}
	for i, slot := range cfg.Slots {
		sc.Partitions = append(sc.Partitions, core.PartitionSpec{Name: names[i], Slot: slot})
	}
	cbhEff := sc.CostModel().EffectiveBH(cfg.CBH)
	lambda := simtime.FromMicrosF(cbhEff.MicrosF() / cfg.Loads[li])
	src := rng.NewStream(cfg.Seed, uint64(li)+1)
	var dist []simtime.Duration
	if variant == experiments.Fig6c {
		dist = workload.ExponentialClamped(src, lambda, lambda, cfg.EventsPerLoad)
	} else {
		dist = workload.Exponential(src, lambda, cfg.EventsPerLoad)
	}
	irq := core.IRQSpec{Name: "timer0", Partition: 0, CTH: cfg.CTH, CBH: cfg.CBH, Arrivals: workload.Timestamps(dist)}
	if variant != experiments.Fig6a {
		sc.Mode = hv.Monitored
		irq.DMin = lambda
	}
	sc.IRQs = []core.IRQSpec{irq}
	return sc, lambda
}

// fig6Assemble merges per-load results into the figure the way
// experiments.Fig6 does and encodes it.
func fig6Assemble(variant experiments.Fig6Variant, cfg experiments.Fig6Config, perLoad []experiments.Fig6LoadResult, s sp) ([]byte, error) {
	sum := s.child("tracerec.summarize")
	out := &experiments.Fig6Result{Variant: variant, Config: cfg, PerLoad: perLoad}
	total := 0
	for _, pl := range perLoad {
		total += pl.Result.Log.Len()
	}
	out.Combined = tracerec.NewLog(total)
	for _, pl := range perLoad {
		out.Combined.Records = append(out.Combined.Records, pl.Result.Log.Records...)
	}
	out.Summary = out.Combined.Summarize()
	var cycle simtime.Duration
	for _, slot := range cfg.Slots {
		cycle += slot
	}
	out.Histogram = out.Combined.NewHistogram(simtime.Micros(50), cycle-cfg.Slots[0]+simtime.Micros(500))
	sum.end()
	enc := s.child("report.encode")
	defer enc.end()
	return report.EncodeFig6(out)
}

// figuresReference computes one seed's documents on the cold path:
// Fig. 6 load by load through core.Run on a fresh system each, Fig. 7
// and the overhead table through their experiments entry points with
// one worker.
func figuresReference(seed uint64) (figDocs, error) {
	var docs figDocs
	cfg := fig6Config(seed, 1)
	for v, variant := range fig6Variants {
		var perLoad []experiments.Fig6LoadResult
		for li, load := range cfg.Loads {
			sc, lambda := fig6Load(variant, cfg, li)
			res, err := core.Run(sc)
			if err != nil {
				return docs, fmt.Errorf("fig6%c reference: %w", variant, err)
			}
			perLoad = append(perLoad, experiments.Fig6LoadResult{Load: load, Lambda: lambda, Result: res, Summary: res.Summary})
		}
		body, err := fig6Assemble(variant, cfg, perLoad, sp{})
		if err != nil {
			return docs, err
		}
		docs[v] = body
	}
	r7, err := experiments.Fig7(fig7Config(seed, 1))
	if err != nil {
		return docs, err
	}
	if docs[3], err = report.EncodeFig7(r7); err != nil {
		return docs, err
	}
	ro, err := experiments.Overhead(fig6Config(seed, 1))
	if err != nil {
		return docs, err
	}
	docs[4], err = report.EncodeOverhead(ro)
	return docs, err
}

// figuresOp is one timed op: the whole evaluation for one seed, Fig. 6
// loads fanned out over nproc workers. An untraced op runs
// experiments.Fig6; a traced one runs fig6Traced.
func figuresOp(e *env, seed uint64, s sp) (*figOp, error) {
	op := &figOp{}
	cfg := fig6Config(seed, e.nproc)
	for v, variant := range fig6Variants {
		var err error
		if s.tr == nil {
			var r *experiments.Fig6Result
			if r, err = experiments.Fig6(variant, cfg); err == nil {
				op.irqs += r.Combined.Len()
				op.docs[v], err = report.EncodeFig6(r)
			}
		} else {
			op.docs[v], err = op.fig6Traced(variant, cfg, s)
		}
		if err != nil {
			return nil, fmt.Errorf("fig6%c: %w", variant, err)
		}
	}

	f7 := s.child("experiments.fig7")
	r7, err := experiments.Fig7(fig7Config(seed, e.nproc))
	f7.end()
	if err != nil {
		return nil, err
	}
	for _, g := range r7.Graphs {
		op.irqs += g.Result.Log.Len()
	}
	enc := s.child("report.encode")
	op.docs[3], err = report.EncodeFig7(r7)
	enc.end()
	if err != nil {
		return nil, err
	}

	ocfg := fig6Config(seed, e.nproc)
	ov := s.child("experiments.overhead")
	ro, err := experiments.Overhead(ocfg)
	ov.end()
	if err != nil {
		return nil, err
	}
	// Each load runs once unmonitored and once monitored.
	op.irqs += 2 * len(ocfg.Loads) * ocfg.EventsPerLoad
	enc = s.child("report.encode")
	op.docs[4], err = report.EncodeOverhead(ro)
	enc.end()
	return op, err
}

// fig6Traced is one Fig. 6 sub-figure composed from the layers' public
// functions, with a span around each call, and encoded. It adds the
// runs' IRQs and DES events to op.
func (op *figOp) fig6Traced(variant experiments.Fig6Variant, cfg experiments.Fig6Config, s sp) ([]byte, error) {
	type loadOut struct {
		res    experiments.Fig6LoadResult
		events uint64
	}
	outs, err := runner.MapCtxPool(context.Background(), cfg.Workers, len(cfg.Loads), engine.NewArena,
		func(a *engine.SimArena, li int) (loadOut, error) {
			gen := s.child("workload.gen")
			sc, lambda := fig6Load(variant, cfg, li)
			gen.end()
			build := s.child("engine.build")
			sys, err := a.Build(sc)
			build.end()
			if err != nil {
				return loadOut{}, err
			}
			fired := sys.Sim().Fired()
			run := s.child("hv.run")
			err = sys.RunToCompletion(core.Horizon(sc))
			if err == nil {
				err = sys.CheckInvariants()
			}
			run.end()
			if err != nil {
				return loadOut{}, err
			}
			events := sys.Sim().Fired() - fired
			rep := s.child("core.report")
			res := core.ReportOwned(sys)
			rep.end()
			return loadOut{experiments.Fig6LoadResult{Load: cfg.Loads[li], Lambda: lambda, Result: res, Summary: res.Summary}, events}, nil
		})
	if err != nil {
		return nil, err
	}
	perLoad := make([]experiments.Fig6LoadResult, len(outs))
	for li, o := range outs {
		perLoad[li] = o.res
		op.events += o.events
		op.irqs += o.res.Result.Log.Len()
	}
	return fig6Assemble(variant, cfg, perLoad, s)
}
