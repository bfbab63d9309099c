package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/server"
)

// service is one in-process otserve: the server behind a loopback
// HTTP listener, exactly as cmd/otserve wires it.
type service struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func startService(cfg server.Config) (*service, error) {
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		abandon(srv)
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and drains the server (journaling servers
// compact on drain).
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// crash closes the listener and leaves the journal as a killed
// process would: every acknowledged record is on disk and no final
// compaction runs.
func (s *service) crash() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
	abandon(s.srv)
}

// abandon stops a server without compacting its journal. Close syncs
// and closes the journal; the Drain after it only joins the worker
// pool and releases sessions, because its compaction fails on the
// closed journal and writes nothing.
func abandon(srv *server.Server) {
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = srv.Drain(ctx) // the compaction error on the closed journal is expected
}

// newClient is the load generator's HTTP client: at most two
// connections, kept alive.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
}

// call issues one request and reads the whole answer; the returned
// duration runs from just before the request is sent to the last byte
// of the body.
func call(c *http.Client, method, url string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	out, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, out, lat, err
}

// getJSON decodes a GET answer into v.
func getJSON(c *http.Client, url string, v any) error {
	status, body, _, err := call(c, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, status, body)
	}
	return json.Unmarshal(body, v)
}

// readMetrics reads the service's /metrics snapshot.
func readMetrics(c *http.Client, url string) (server.Snapshot, error) {
	var s server.Snapshot
	err := getJSON(c, url+"/metrics", &s)
	return s, err
}

// getDirect serves one GET through the handler without a listener
// (recovery is measured without an HTTP path).
func getDirect(h http.Handler, path string, v any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

// checker collects correctness violations from every goroutine.
type checker struct {
	mu   sync.Mutex
	errs []error
}

func (c *checker) fail(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	c.errs = append(c.errs, err)
	c.mu.Unlock()
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.errs) == 0
}

func (c *checker) first(n int) []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < n {
		n = len(c.errs)
	}
	return append([]error(nil), c.errs[:n]...)
}

// outcome is one operation as the client saw it. attempted and failed
// count the units a failure is counted in (jobs of an array; one for
// every other operation).
type outcome struct {
	lat               time.Duration
	attempted, failed int
	// allocBytes is allocation made outside this process (a restart
	// run in a child process).
	allocBytes uint64
}

// window is what one measured closed loop produced.
type window struct {
	lats              []time.Duration
	ends              []time.Duration // completion times, from the window start
	ops               int
	attempted, failed int
	elapsed           time.Duration
	allocBytes        uint64
}

// closedLoop runs conns clients, each issuing op(conn, k) for
// k = 0, 1, … and sending its next request only after the previous
// answer. Operations started before d has passed run to completion, so
// every run attempts whole operations.
func closedLoop(conns int, d time.Duration, op func(conn, k int) outcome) window {
	var mu sync.Mutex
	var w window
	var wg sync.WaitGroup
	a0 := allocBytes()
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lats, ends []time.Duration
			att, failed := 0, 0
			var alloc uint64
			for k := 0; time.Since(t0) < d; k++ {
				o := op(c, k)
				lats = append(lats, o.lat)
				ends = append(ends, time.Since(t0))
				att += o.attempted
				failed += o.failed
				alloc += o.allocBytes
			}
			mu.Lock()
			w.lats = append(w.lats, lats...)
			w.ends = append(w.ends, ends...)
			w.attempted += att
			w.failed += failed
			w.allocBytes += alloc
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(t0)
	w.allocBytes += allocBytes() - a0
	w.ops = len(w.lats)
	return w
}
