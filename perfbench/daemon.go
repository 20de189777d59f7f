package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// daemon is one in-process serve daemon on a loopback listener.
type daemon struct {
	s   *serve.Server
	hs  *http.Server
	url string
	reg *metrics.Registry
}

// startDaemon serves a new serve.Server on ln. In a traced run the
// handler records a "serve.handler" span under the client span named
// by the request's spanHeader.
func startDaemon(opts serve.Options, ln net.Listener, tr *tracer) (*daemon, error) {
	if opts.Registry == nil {
		opts.Registry = metrics.NewRegistry()
	}
	s, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	d := &daemon{s: s, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), reg: opts.Registry}
	go func() { _ = d.hs.Serve(ln) }() // returns when stop closes the server
	return d, nil
}

// waitReady polls /readyz until the daemon has replayed its journal.
func (d *daemon) waitReady(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(d.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 30s", d.url)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener and drains the daemon.
func (d *daemon) stop() error {
	cerr := d.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return errors.Join(cerr, d.s.Shutdown(ctx))
}

// histogram reads a histogram's sum and count from the daemon's
// Prometheus exposition.
func (d *daemon) histogram(name string) (sum float64, count int64) {
	var buf bytes.Buffer
	_, _ = d.reg.WriteTo(&buf) // writes to a bytes.Buffer cannot fail
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+"_sum "); ok {
			sum, _ = strconv.ParseFloat(v, 64)
		}
		if v, ok := strings.CutPrefix(sc.Text(), name+"_count "); ok {
			count, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return sum, count
}

// spanHeader carries "<op>:<span>" from a traced client request to the
// daemon's handler span.
const spanHeader = "X-Perfbench-Span"

func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, id, ok := strings.Cut(r.Header.Get(spanHeader), ":")
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		o, err1 := strconv.Atoi(op)
		p, err2 := strconv.Atoi(id)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := sp{tr: tr, op: int32(o), id: int32(p)}.child("serve.handler")
		h.ServeHTTP(w, r)
		s.end()
	})
}

func (s sp) header() string { return fmt.Sprintf("%d:%d", s.op, s.id) }

// loopbackClient keeps at most conns connections to each host.
func loopbackClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}
