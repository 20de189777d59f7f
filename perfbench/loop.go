package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is the process state the timed loop is measured against.
type procSample struct {
	at      time.Time
	steal   time.Duration // host-wide CPU time stolen from this VM
	cpu     time.Duration
	gc      uint32
	pause   uint64
	mallocs uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:      time.Now(),
		steal:   stealTime(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:      ms.NumGC,
		pause:   ms.PauseTotalNs,
		mallocs: ms.Mallocs,
	}
}

// loop is the record of one timed loop.
type loop struct {
	ops, failed int
	wall        time.Duration
	cpu         time.Duration
	gcCycles    uint32
	gcPause     time.Duration
	mallocs     uint64
	steal       time.Duration
	rssSetup    float64 // peak resident set before the loop, MiB
	rss         *rssWindows
	rssPeak     float64         // median over windows of the window's peak resident set, MiB
	lat         []time.Duration // every op, from the time it was due
	tracedLat   []time.Duration // ops that recorded spans
	plainLat    []time.Duration // ops that did not
}

// newLoop starts the record of a timed loop; finish ends it.
func newLoop() *loop {
	return &loop{rssSetup: rssPeakMB(), rss: startRSS(time.Second)}
}

func (l *loop) finish(from procSample) {
	l.rssPeak = l.rss.finish()
	to := sampleProc()
	l.wall = to.at.Sub(from.at)
	l.cpu = to.cpu - from.cpu
	l.steal = to.steal - from.steal
	l.gcCycles = to.gc - from.gc
	l.gcPause = time.Duration(to.pause - from.pause)
	l.mallocs = to.mallocs - from.mallocs
}

func (l *loop) record(d time.Duration, traced bool) {
	l.lat = append(l.lat, d)
	if traced {
		l.tracedLat = append(l.tracedLat, d)
	} else {
		l.plainLat = append(l.plainLat, d)
	}
}

// traced reports whether op i records spans: in a traced run every
// other op does, so the untraced ones measure what tracing costs.
func (e *env) traced(i int) bool { return e.tr != nil && i%2 == 0 }

// more reports whether the loop that started at start and has run ops
// ops should start another.
func (e *env) more(start time.Time, ops int) bool {
	if e.maxOps > 0 {
		return ops < e.maxOps
	}
	return ops == 0 || time.Since(start) < e.seconds
}

// closedLoop runs op back to back: the next op starts when the
// previous one returned. An op that returns an error counts as failed.
func (e *env) closedLoop(op func(i int, s sp) error) *loop {
	l := newLoop()
	from := sampleProc()
	for i := 0; e.more(from.at, i); i++ {
		t0 := time.Now()
		var root sp
		if e.traced(i) {
			root = e.tr.root(i, t0)
		}
		err := op(i, root)
		root.end()
		l.record(time.Since(t0), e.traced(i))
		l.ops++
		if err != nil {
			l.fail(err)
		}
	}
	l.finish(from)
	return l
}

func (l *loop) fail(err error) {
	l.failed++
	if l.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
	}
}

// common fills the metrics every workload reports the same way.
func (l *loop) common(e *env, m map[string]float64) {
	ops := float64(max(l.ops, 1))
	m["cpu_ms_per_op"] = ms(l.cpu) / ops
	m["req_p50_ms"] = ms(percentile(l.lat, 0.50))
	m["req_p90_ms"] = ms(percentile(l.lat, 0.90))
	m["rss_peak_mb"] = l.rssPeak
	m["gc.cycles_per_op"] = float64(l.gcCycles) / ops
	m["gc.pause_ms_per_op"] = ms(l.gcPause) / ops
	m["mem.allocs_per_op"] = float64(l.mallocs) / ops
	if e.tr != nil {
		m["trace.coverage"] = e.tr.summarize().coverage()
		m["trace.overhead"] = ratio(mean(l.tracedLat), mean(l.plainLat))
	}
}

// meta records the run conditions that make a noisy run explainable.
func (l *loop) meta(setups []float64) map[string]any {
	return map[string]any{
		"ops":           l.ops,
		"wall_s":        l.wall.Seconds(),
		"gc_cycles":     l.gcCycles,
		"gc_pause_ms":   ms(l.gcPause),
		"setup_runs_s":  setups,
		"traced_ops":    len(l.tracedLat),
		"untraced_ops":  len(l.plainLat),
		"req_max_ms":    ms(percentile(l.lat, 1)),
		"rss_setup_mb":  l.rssSetup,
		"rss_windows":   len(l.rss.peaks),
		"cpu_s":         l.cpu.Seconds(),
		"host_steal_ms": ms(l.steal),
		"op_ms":         opMillis(l.lat),
		"lateness_note": "closed loop: every op starts when the previous one returns",
	}
}

// setupRuns is how often a run sets up; setup_s is the median.
const setupRuns = 7

// repeatSetup runs the workload's set-up n times, tears all but the
// last down again, and returns the last one with the median time.
// prepare, when set, runs untimed before each set-up: it stages what a
// user would already have, such as a filled data dir. The median keeps
// one slow set-up (a GC, a cold page cache) from setting setup_s.
func repeatSetup[T any](n int, prepare func(rep int) error, setup func(rep int) (T, error), teardown func(T)) (T, float64, []float64, error) {
	var cur T
	times := make([]float64, 0, n)
	for rep := 0; rep < n; rep++ {
		if prepare != nil {
			if err := prepare(rep); err != nil {
				return cur, 0, nil, fmt.Errorf("preparing set-up %d: %w", rep, err)
			}
		}
		t0 := time.Now()
		v, err := setup(rep)
		if err != nil {
			return cur, 0, nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if rep > 0 {
			teardown(cur)
		}
		cur = v
	}
	return cur, medianF(times), times, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is the nearest-rank q-quantile of ds (0 for none).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// medianRate is the median over ops of work done per second of op
// time. A host that stalls part of a run slows some ops; the median of
// per-op rates leaves those out where a total over the run would not.
func medianRate(work []float64, lat []time.Duration) float64 {
	rates := make([]float64, 0, len(work))
	for i, w := range work {
		if s := lat[i].Seconds(); s > 0 {
			rates = append(rates, w/s)
		}
	}
	return medianF(rates)
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio[T ~int64 | ~float64 | ~int](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// opMillis lists op latencies in milliseconds, rounded to 0.01 ms,
// capped at the first 200 ops.
func opMillis(ds []time.Duration) []float64 {
	out := make([]float64, 0, min(len(ds), 200))
	for _, d := range ds[:min(len(ds), 200)] {
		out = append(out, math.Round(ms(d)*100)/100)
	}
	return out
}

// stealTime reads the steal column of /proc/stat: time the hypervisor
// ran other guests while this one wanted the CPU. 0 where unavailable.
func stealTime() time.Duration {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	j, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(j) * 10 * time.Millisecond // USER_HZ = 100
}

// rssWindows samples the peak resident set once per window while a
// timed loop runs. Each sample reads VmHWM and then resets it through
// /proc/self/clear_refs, so a sample is the peak of its own window.
// The median over windows is steady where one whole-run peak is not:
// that peak is a maximum over every GC cycle's timing. Where the reset
// is refused the samples are running peaks, whose median is still a
// peak of the loop.
type rssWindows struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

func startRSS(window time.Duration) *rssWindows {
	r := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	go func() {
		defer close(r.done)
		t := time.NewTicker(window)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.peaks = append(r.peaks, rssPeakMB())
				resetPeakRSS()
			case <-r.stop:
				r.peaks = append(r.peaks, rssPeakMB())
				return
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the median window peak.
func (r *rssWindows) finish() float64 {
	close(r.stop)
	<-r.done
	return medianF(r.peaks)
}

func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see rssWindows
}

// rssPeakMB is the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
