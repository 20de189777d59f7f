package main

import (
	"runtime"
	"testing"
)

// TestWorkloadsMatchDeclaration runs every workload for one op with
// tracing on. Each must pass its output oracle and measure exactly the
// metrics BENCHMARK.json declares, end-to-end and per-layer: measure
// fails on a declared metric that is missing and on a measured one the
// declaration lacks.
func TestWorkloadsMatchDeclaration(t *testing.T) {
	decl, err := loadDecl("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.EndToEnd) == 0 || len(decl.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			e := &env{
				workload: name,
				seed:     7,
				maxOps:   1,
				workdir:  t.TempDir(),
				nproc:    runtime.GOMAXPROCS(0),
				tr:       newTracer(),
			}
			out, err := measure(e, run, decl)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Fatalf("attempted %d, failed %d: the oracle rejected an op", out.attempted, out.failed)
			}
			if len(out.e2e) != len(decl.EndToEnd) || len(out.layers) != len(decl.PerLayer) {
				t.Fatalf("printed %d end-to-end and %d per-layer metrics, declared %d and %d",
					len(out.e2e), len(out.layers), len(decl.EndToEnd), len(decl.PerLayer))
			}
		})
	}
}

func TestUnionWithin(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {7, 12}, {20, 30}}
	if got := unionWithin(ivs, 1, 25); got != 3+7+5 {
		t.Fatalf("union = %d, want 15", got)
	}
}
