package main

// The serve workload drives one durable daemon (DataDir set, default
// fsync policy) over loopback HTTP with an open-loop generator: request
// i is due at start + i/serveRate whatever happened before it, at most
// nproc connections carry the traffic, and each request is timed from
// the time it was due. The mix touches every tier of the daemon:
// repeats of a hot set (memory cache), GET /v1/results/{key} of keys
// stored before the daemon started (store tier), and fresh specs (cold
// compute, journal append, store put). It is the only workload where
// HTTP, the queue, the cache, the store and the journal set the result.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
)

var serveLayers = []string{
	"serve.hit_ms_p50", "serve.store_ms_p50", "serve.miss_ms_p50", "serve.req_p99_ms",
	"serve.job_s_mean", "serve.queue_wait_ms", "serve.hit_ratio", "serve.coalesced", "serve.rejected",
	"serve.handler_ms", "http.client_self_ms",
	"store.put_us", "store.put_fsync_us", "store.get_us", "http.healthz_us", "loadgen.late_ms_max",
}

// The traffic below is an assumption, not a recording: no trace of the
// daemon's real use exists. Requests ask for the daemon's default size
// (no "events" field: 5,000 IRQs per load, the size figures runs and
// the one README.md's first example sends). The rate keeps the daemon
// well below saturation (README.md gives the measured headroom); the
// mix, the hot set and the stored keys are chosen so that every tier
// serves a share of the traffic.
const (
	serveRate = 100 // offered requests per second
	serveHot  = 16  // hot-set specs, repeated from the memory cache
	serveOld  = 100 // results stored before the daemon opens
	// Shares of the mix, in percent: hot repeats, stored keys, fresh
	// specs. Fresh specs exceed 10% so req_p90_ms falls on the miss path.
	serveHotPct, serveOldPct = 60, 15
)

type reqClass int

const (
	classHot reqClass = iota
	classOld
	classFresh
)

// serveReq is one scheduled request and what came back.
type serveReq struct {
	class  reqClass
	index  int // into hot, old, or the fresh sequence
	status int
	cache  string
	sum    [32]byte
	lat    time.Duration
	late   time.Duration
}

// figSpec is a fig6 request at the daemon's default size.
type figSpec struct {
	Kind string `json:"kind"`
	Seed uint64 `json:"seed"`
	Wait bool   `json:"wait"`
}

// figBody is what the daemon must answer for a fig6 spec: the local
// encoding of the same experiment.
func figBody(f figSpec) ([]byte, error) {
	cfg := experiments.DefaultFig6()
	cfg.Seed = f.Seed
	cfg.Workers = 1
	r, err := experiments.Fig6(experiments.Fig6Variant(f.Kind[4]), cfg)
	if err != nil {
		return nil, err
	}
	return report.EncodeFig6(r)
}

// serveIRQs is the number of IRQs one fig6 request simulates.
func serveIRQs() int {
	cfg := experiments.DefaultFig6()
	return len(cfg.Loads) * cfg.EventsPerLoad
}

type serveState struct {
	d       *daemon
	client  *http.Client
	hot     []figSpec
	hotSum  [][32]byte
	oldKeys []string
	oldSum  [][32]byte
	reqs    []serveReq
	filled  string // data dir holding the stored results; each set-up opens a copy
}

func (e *env) freshSpec(i int) figSpec {
	return figSpec{Kind: "fig6c", Seed: e.seed*1_000_000 + 100_000 + uint64(i), Wait: true}
}

func runServe(e *env) (*outcome, error) {
	st, err := serveInputs(e)
	if err != nil {
		return nil, err
	}
	dataDir := func(rep int) string { return filepath.Join(e.workdir, fmt.Sprintf("data%d", rep)) }
	d, setupS, setups, err := repeatSetup(setupRuns,
		func(rep int) error { return copyTree(st.filled, dataDir(rep)) },
		func(rep int) (*daemon, error) { return st.open(e, dataDir(rep)) },
		func(d *daemon) { _ = d.stop() })
	if err != nil {
		return nil, err
	}
	st.d = d
	defer func() { _ = st.d.stop() }()
	coalesced := st.d.reg.Counter("repro_server_jobs_coalesced_total")
	rejected := st.d.reg.Counter("repro_server_jobs_rejected_total")
	coalesced0, rejected0 := coalesced.Value(), rejected.Value()
	jobSum0, jobCount0 := st.d.histogram("repro_server_job_seconds")

	l := st.openLoop(e)
	var lates []time.Duration
	for _, r := range st.reqs {
		lates = append(lates, r.late)
	}
	lateMax := percentile(lates, 1)

	// The oracle: every answer is a 200 whose body is the local
	// encoding of its spec. Fresh specs are encoded here, after the
	// timed loop, so the check costs the measurement nothing.
	var misses int
	for i, err := range st.verify(e) {
		if err != nil {
			l.fail(err)
			continue
		}
		if st.reqs[i].cache == "miss" {
			misses++
		}
	}

	// The offered rate is fixed, so irqs_per_s follows the schedule: it
	// drops only if the daemon falls behind (README.md).
	m := map[string]float64{
		"setup_s":    setupS,
		"irqs_per_s": float64(misses*serveIRQs()) / l.wall.Seconds(),
	}
	l.common(e, m)
	if e.tr != nil {
		byCache := map[string][]time.Duration{}
		for _, r := range st.reqs {
			byCache[r.cache] = append(byCache[r.cache], r.lat)
		}
		m["serve.hit_ms_p50"] = ms(percentile(byCache["hit"], 0.5))
		m["serve.store_ms_p50"] = ms(percentile(byCache["store"], 0.5))
		m["serve.miss_ms_p50"] = ms(percentile(byCache["miss"], 0.5))
		m["serve.req_p99_ms"] = ms(percentile(l.lat, 0.99))
		jobSum, jobCount := st.d.histogram("repro_server_job_seconds")
		jobMean := (jobSum - jobSum0) / float64(max(jobCount-jobCount0, 1))
		m["serve.job_s_mean"] = jobMean
		m["serve.queue_wait_ms"] = ms(mean(byCache["miss"])) - 1000*jobMean
		m["serve.hit_ratio"] = ratio(len(byCache["hit"]), len(st.reqs))
		m["serve.coalesced"] = float64(coalesced.Value() - coalesced0)
		m["serve.rejected"] = float64(rejected.Value() - rejected0)
		m["loadgen.late_ms_max"] = ms(lateMax)
		// Per traced request: the daemon's handler, and what the HTTP
		// call costs around it (client, loopback, net/http server).
		ts := e.tr.summarize()
		perOp := func(name string) float64 { return ms(ts.layer(name).self) / float64(max(ts.ops, 1)) }
		m["serve.handler_ms"] = perOp("serve.handler")
		m["http.client_self_ms"] = perOp("http.request")
		if err := st.probeLayers(e, m); err != nil {
			return nil, err
		}
		if err := probeRing(e, m); err != nil {
			return nil, fmt.Errorf("ring probe: %w", err)
		}
	}
	meta := l.meta(setups)
	meta["offered_req_per_s"] = serveRate
	meta["lateness_note"] = "open loop: latency counts from the due time"
	meta["generator_late_ms_max"] = ms(lateMax)
	meta["generator_late_ms_p50"] = ms(percentile(lates, 0.5))
	counts := map[string]int{}
	for _, r := range st.reqs {
		counts[r.cache]++
	}
	meta["x_cache"] = counts
	return &outcome{attempted: l.ops, failed: l.failed, metrics: m, meta: meta}, nil
}

// serveInputs builds the request schedule and the specs from the seed,
// and fills a data dir with the hot and stored results through a first
// daemon, checking each against its local encoding. None of this is
// set-up time: it stands for a daemon's earlier life.
func serveInputs(e *env) (*serveState, error) {
	st := &serveState{client: loopbackClient(e.nproc), filled: filepath.Join(e.workdir, "filled")}
	base := e.seed * 1_000_000
	var old []figSpec
	for i := 0; i < serveHot; i++ {
		st.hot = append(st.hot, figSpec{Kind: "fig6a", Seed: base + 1 + uint64(i), Wait: true})
	}
	for i := 0; i < serveOld; i++ {
		old = append(old, figSpec{Kind: "fig6b", Seed: base + 1000 + uint64(i), Wait: true})
	}
	// The mix holds its shares exactly in every run; the seed picks the
	// order and which hot and stored keys are asked for.
	n := max(int(e.seconds.Seconds()*serveRate), 1)
	if e.maxOps > 0 {
		n = e.maxOps
	}
	src := rng.New(e.seed + 1)
	nHot, nOld := n*serveHotPct/100, n*serveOldPct/100
	fresh := 0
	for _, p := range src.Perm(n) {
		r := serveReq{class: classFresh, index: fresh}
		switch {
		case p < nHot:
			r = serveReq{class: classHot, index: src.Intn(serveHot)}
		case p < nHot+nOld:
			r = serveReq{class: classOld, index: src.Intn(serveOld)}
		default:
			fresh++
		}
		st.reqs = append(st.reqs, r)
	}

	first, err := listenAndStart(serve.Options{Workers: e.nproc, DataDir: st.filled}, nil)
	if err != nil {
		return nil, err
	}
	all := append(append([]figSpec(nil), st.hot...), old...)
	keys := make([]string, len(all))
	sums := make([][32]byte, len(all))
	err = parallel(e.nproc, len(all), func(i int) error {
		want, err := figBody(all[i])
		if err != nil {
			return err
		}
		resp, err := st.post(first.url, all[i], sp{})
		if err != nil {
			return err
		}
		if resp.status != http.StatusOK || resp.sum != sha256.Sum256(want) {
			return fmt.Errorf("populating: %+v answered %d with unexpected bytes", all[i], resp.status)
		}
		keys[i], sums[i] = resp.key, resp.sum
		return nil
	})
	if serr := first.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	st.hotSum = sums[:serveHot]
	st.oldKeys, st.oldSum = keys[serveHot:], sums[serveHot:]
	return st, nil
}

// open is the timed set-up: it opens a daemon on dir, a copy of the
// filled data dir (store index, journal replay), waits for /readyz, and
// warms the hot set into the memory cache.
func (st *serveState) open(e *env, dir string) (*daemon, error) {
	d, err := listenAndStart(serve.Options{Workers: e.nproc, DataDir: dir}, e.tr)
	if err != nil {
		return nil, err
	}
	if err := d.waitReady(st.client); err != nil {
		_ = d.stop()
		return nil, err
	}
	// Warm-up: the hot set comes from the store once, then from memory.
	for round, want := range []string{"store", "hit"} {
		for i, f := range st.hot {
			resp, err := st.post(d.url, f, sp{})
			if err == nil && (resp.cache != want || resp.sum != st.hotSum[i]) {
				err = fmt.Errorf("warm-up round %d: hot spec %d answered X-Cache %q", round, i, resp.cache)
			}
			if err != nil {
				_ = d.stop()
				return nil, err
			}
		}
	}
	return d, nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, buf, 0o644)
	})
}

// parallel runs f(0) … f(n-1) on workers goroutines and returns the
// first error.
func parallel(workers, n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func listenAndStart(opts serve.Options, tr *tracer) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(opts, ln, tr)
	if err != nil {
		ln.Close()
	}
	return d, err
}

type answer struct {
	status int
	cache  string
	key    string
	sum    [32]byte
}

func (st *serveState) post(url string, f figSpec, s sp) (answer, error) {
	body, err := json.Marshal(f)
	if err != nil {
		return answer{}, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	return st.do(req, s)
}

func (st *serveState) do(req *http.Request, s sp) (answer, error) {
	if s.tr != nil {
		req.Header.Set(spanHeader, s.header())
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return answer{}, err
	}
	a := answer{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), key: resp.Header.Get("X-Job-Key")}
	copy(a.sum[:], h.Sum(nil))
	return a, nil
}

// openLoop sends st.reqs on their schedule from nproc senders and
// returns the loop record. Each request records how late it was sent.
func (st *serveState) openLoop(e *env) *loop {
	l := newLoop()
	var next atomic.Int64
	var mu sync.Mutex
	period := time.Second / serveRate
	from := sampleProc()
	start := from.at
	var wg sync.WaitGroup
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(st.reqs) {
					return
				}
				due := start.Add(time.Duration(i) * period)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r := &st.reqs[i]
				var root sp
				if e.traced(i) {
					root = e.tr.root(i, due)
					root.childFrom("loadgen.wait", due).end()
				}
				r.late = time.Since(due)
				call := root.child("http.request")
				a, err := st.send(e, r, call)
				call.end()
				root.end()
				r.lat = time.Since(due)
				if err != nil {
					r.status = -1
				} else {
					r.status, r.cache, r.sum = a.status, a.cache, a.sum
				}
				mu.Lock()
				l.record(r.lat, e.traced(i))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	l.finish(from)
	l.ops = len(st.reqs)
	return l
}

func (st *serveState) send(e *env, r *serveReq, s sp) (answer, error) {
	switch r.class {
	case classHot:
		return st.post(st.d.url, st.hot[r.index], s)
	case classOld:
		req, err := http.NewRequest(http.MethodGet, st.d.url+"/v1/results/"+st.oldKeys[r.index], nil)
		if err != nil {
			return answer{}, err
		}
		return st.do(req, s)
	default:
		return st.post(st.d.url, e.freshSpec(r.index), s)
	}
}

// verify checks every answer against the local encoding of its spec,
// on nproc workers, and returns one error (or nil) per request.
func (st *serveState) verify(e *env) []error {
	errs := make([]error, len(st.reqs))
	_ = parallel(e.nproc, len(st.reqs), func(i int) error {
		r := &st.reqs[i]
		errs[i] = st.check(e, r)
		return nil
	})
	return errs
}

func (st *serveState) check(e *env, r *serveReq) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("request class %d #%d: status %d", r.class, r.index, r.status)
	}
	var want [32]byte
	switch r.class {
	case classHot:
		want = st.hotSum[r.index]
	case classOld:
		want = st.oldSum[r.index]
	default:
		body, err := figBody(e.freshSpec(r.index))
		if err != nil {
			return err
		}
		want = sha256.Sum256(body)
	}
	if r.sum != want {
		return fmt.Errorf("request class %d #%d: body differs from the local encoding", r.class, r.index)
	}
	return nil
}

// probeLayers times the layers the request mix cannot isolate: store
// puts with and without fsync and gets, called directly on a scratch
// store, and the HTTP floor, GET /healthz.
func (st *serveState) probeLayers(e *env, m map[string]float64) error {
	body, err := figBody(e.freshSpec(0))
	if err != nil {
		return err
	}
	for _, fsync := range []bool{false, true} {
		dir := filepath.Join(e.workdir, fmt.Sprintf("probe-store-%v", fsync))
		s, err := store.Open(dir, store.Options{Fsync: fsync})
		if err != nil {
			return err
		}
		var puts, gets []time.Duration
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("%064x", i+1)
			t0 := time.Now()
			if err := s.Put(key, body); err != nil {
				return err
			}
			puts = append(puts, time.Since(t0))
			t0 = time.Now()
			got, ok := s.Get(key)
			gets = append(gets, time.Since(t0))
			if !ok || !bytes.Equal(got, body) {
				return fmt.Errorf("store probe: entry %d did not read back", i)
			}
		}
		if fsync {
			m["store.put_fsync_us"] = us(percentile(puts, 0.5))
		} else {
			m["store.put_us"] = us(percentile(puts, 0.5))
			m["store.get_us"] = us(percentile(gets, 0.5))
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	var hz []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		resp, err := st.client.Get(st.d.url + "/healthz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		hz = append(hz, time.Since(t0))
	}
	m["http.healthz_us"] = us(percentile(hz, 0.5))
	return nil
}
