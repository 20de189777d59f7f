package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: a call into a layer's public function,
// made from the benchmark's own code. Spans of one benchmark op share
// Op.
type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"` // index of the causing span, -1 for an op's root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends; writeFile
// puts them on disk after the measurement.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// sp is a handle on an open span. The zero value — what every call
// gets when tracing is off or the op is an untraced one — records
// nothing.
type sp struct {
	tr *tracer
	op int32
	id int32
}

func (t *tracer) open(name string, op, parent int32, start time.Time) sp {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start.Sub(t.t0).Nanoseconds(), End: -1})
	return sp{tr: t, op: op, id: int32(len(t.spans) - 1)}
}

// root opens op's root span at start, the time the op was due.
func (t *tracer) root(op int, start time.Time) sp {
	if t == nil {
		return sp{}
	}
	return t.open("op", int32(op), -1, start)
}

// child opens a span caused by s.
func (s sp) child(name string) sp {
	if s.tr == nil {
		return sp{}
	}
	return s.tr.open(name, s.op, s.id, time.Now())
}

// childFrom opens a span caused by s that began at start.
func (s sp) childFrom(name string, start time.Time) sp {
	if s.tr == nil {
		return sp{}
	}
	return s.tr.open(name, s.op, s.id, start)
}

func (s sp) end() {
	if s.tr == nil {
		return
	}
	now := time.Since(s.tr.t0).Nanoseconds()
	s.tr.mu.Lock()
	s.tr.spans[s.id].End = now
	s.tr.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// layerStat aggregates the closed spans of one name.
type layerStat struct {
	count int
	self  time.Duration // summed durations minus the time child spans cover
}

// traceSummary is what the spans say about a run.
type traceSummary struct {
	layers  map[string]*layerStat
	ops     int           // traced ops
	opTime  time.Duration // summed root span durations
	covered time.Duration // summed time of each root its leaf spans cover
}

func (ts traceSummary) layer(name string) *layerStat {
	if l := ts.layers[name]; l != nil {
		return l
	}
	return &layerStat{}
}

// coverage is the share of traced op time that leaf spans account for.
func (ts traceSummary) coverage() float64 {
	if ts.opTime <= 0 {
		return 0
	}
	return float64(ts.covered) / float64(ts.opTime)
}

func (t *tracer) summarize() traceSummary { return t.summarizeFrom(0) }

// summarizeFrom derives per-layer self time and op coverage over the
// ops numbered from op on. A span's self time is its duration minus the
// union of its children's intervals, so parallel children are not
// counted twice. An op's coverage is the union of its leaf spans — the
// innermost layer calls, with no span inside them — over the root's
// duration. A span that wraps others, such as the HTTP call around the
// daemon's handler, counts only through the leaves inside it.
func (t *tracer) summarizeFrom(op int) traceSummary {
	spans := t.snapshot()
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	leaves := make(map[int32][][2]int64) // by op
	roots := make(map[int32]span)
	ts := traceSummary{layers: map[string]*layerStat{}}
	for i, s := range spans {
		if s.End < 0 || s.Op < int32(op) {
			continue
		}
		if s.Parent < 0 {
			roots[s.Op] = s
			ts.ops++
			ts.opTime += time.Duration(s.End - s.Start)
			continue
		}
		under := unionWithin(kids[int32(i)], s.Start, s.End)
		if len(kids[int32(i)]) == 0 {
			leaves[s.Op] = append(leaves[s.Op], [2]int64{s.Start, s.End})
		}
		l := ts.layers[s.Name]
		if l == nil {
			l = &layerStat{}
			ts.layers[s.Name] = l
		}
		l.count++
		l.self += time.Duration(s.End - s.Start - under)
	}
	for o, r := range roots {
		ts.covered += time.Duration(unionWithin(leaves[o], r.Start, r.End))
	}
	return ts
}

// unionWithin returns the length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}
