// Command perfbench is the repository's same-host benchmark. One process,
// pinned to GOMAXPROCS = nproc, runs one workload for a fixed time,
// checks every output it measured against an oracle, and prints the
// metrics BENCHMARK.json declares as the last line of standard output.
// run.py builds it and runs it from the repository root:
//
//	python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with
// tracing off. With --trace 1 it alternates traced and untraced ops
// and prints the per-layer metrics derived from the spans the
// benchmark records around its calls into each layer (trace.go).
// README.md beside this file describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// env is what every workload receives: its inputs come from seed, it
// measures for seconds, and it records spans when tr is non-nil.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	maxOps   int // 0 = as many as fit in seconds; the self-test runs one
	workdir  string
	nproc    int
	tr       *tracer
}

// outcome is one workload run: ops attempted and failed, the metrics
// by declared name, and diagnostics that ride along in the meta line.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	meta      map[string]any
	e2e       map[string]metricValue // declared end-to-end metrics
	layers    map[string]metricValue // declared per-layer metrics, traced runs only
}

var workloads = map[string]func(*env) (*outcome, error){
	"figures": runFigures,
	"serve":   runServe,
}

// layersOf names the per-layer metrics each workload measures. The
// campaign probe runs in figures' traced run, the ring probe in serve's.
var layersOf = map[string][]string{
	"figures": append(append([]string(nil), figuresLayers...), campaignLayers...),
	"serve":   append(append([]string(nil), serveLayers...), ringLayers...),
}

func main() {
	name := flag.String("workload", "", "workload to run: figures or serve")
	seed := flag.Uint64("seed", 1, "seed the workload derives its inputs from")
	seconds := flag.Float64("seconds", 10, "length of the timed loop")
	trace := flag.Int("trace", 0, "1 records layer spans and prints the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	decl, err := loadDecl("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *name, os.Getpid())))
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	e := &env{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		workdir:  dir,
		nproc:    runtime.GOMAXPROCS(0),
	}
	if *trace == 1 {
		e.tr = newTracer()
	}
	out, err := measure(e, run, decl)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	if e.tr != nil {
		if err := e.tr.writeFile(filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))); err != nil {
			fatalf("writing spans: %v", err)
		}
	}
	printed := out.e2e
	if e.tr != nil {
		printed = out.layers
		if cov := out.metrics["trace.coverage"]; cov < 0.9 {
			out.meta["coverage_below_0.9"] = true
			fmt.Fprintf(os.Stderr, "perfbench: %s: layer spans cover %.1f%% of op time, under the 90%% target\n", *name, 100*cov)
		}
	}
	out.meta["go_version"] = runtime.Version()
	out.meta["nproc"] = runtime.NumCPU()
	out.meta["gomaxprocs"] = e.nproc
	out.meta["seed"] = *seed
	out.meta["workload"] = *name
	out.meta["trace"] = *trace
	emit(map[string]any{"meta": out.meta})
	emit(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   printed,
	})
}

// measure runs one workload and selects the declared metrics from
// what it measured: out.e2e holds every end-to-end metric, and in a
// traced run out.layers holds every per-layer metric.
func measure(e *env, run func(*env) (*outcome, error), decl *declaration) (*outcome, error) {
	out, err := run(e)
	if err != nil {
		return nil, err
	}
	// A layer the workload bypasses did no work on it: its metrics read
	// 0, which is itself the prediction for that workload.
	if e.tr != nil {
		for other, layers := range layersOf {
			if other == e.workload {
				continue
			}
			for _, l := range layers {
				if _, ok := out.metrics[l]; !ok {
					out.metrics[l] = 0
				}
			}
		}
	}
	if out.e2e, err = decl.pick(decl.EndToEnd, out.metrics); err != nil {
		return nil, err
	}
	if e.tr != nil {
		if out.layers, err = decl.pick(decl.PerLayer, out.metrics); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type declaration struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDecl(path string) (*declaration, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark declaration: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns exactly the declared metrics with their declared units.
// A declared metric the workload did not measure, or a measured one
// the declaration lacks, is an error: the printed set and
// BENCHMARK.json cannot drift apart.
func (d *declaration) pick(want []metricDecl, got map[string]float64) (map[string]metricValue, error) {
	declared := map[string]bool{}
	for _, m := range d.EndToEnd {
		declared[m.Name] = true
	}
	for _, m := range d.PerLayer {
		declared[m.Name] = true
	}
	var extra []string
	for name := range got {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics not declared in BENCHMARK.json: %v", extra)
	}
	out := make(map[string]metricValue, len(want))
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

func emit(v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding output: %v", err)
	}
	fmt.Println(string(buf))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
