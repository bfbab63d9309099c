package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
)

// rawPost submits a job and returns status, parsed shed body (nil for
// 200) and the Retry-After header.
func rawPost(t *testing.T, ts *httptest.Server, j *Job) (int, *shedError, string) {
	t.Helper()
	body, _ := json.Marshal(j)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, nil, ""
	}
	var shed shedError
	if err := json.Unmarshal(buf.Bytes(), &shed); err != nil {
		t.Fatalf("decode shed body: %v\n%s", err, buf.String())
	}
	return resp.StatusCode, &shed, resp.Header.Get("Retry-After")
}

// TestOverloadSheds fills a 1-worker, 2-deep server with slow jobs:
// the overflow must shed with 429 + Retry-After, nothing may answer
// 5xx, and everything admitted must complete once the jam clears.
func TestOverloadSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 2, Rate: -1, BreakerThreshold: -1})
	release := make(chan struct{})
	real := s.pool.exec
	s.pool.exec = func(ctx context.Context, jobs []*Job) ([]*report.Report, error) {
		<-release
		return real(ctx, jobs)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	const flood = 12
	statuses := make([]int, flood)
	reasons := make([]string, flood)
	retries := make([]string, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, shed, ra := rawPost(t, ts, &Job{Alg: "sort", N: 8, Seed: uint64(i)})
			statuses[i] = st
			retries[i] = ra
			if shed != nil {
				reasons[i] = shed.Reason
			}
		}(i)
		if i == 0 {
			// Let the first job reach the worker so the queue math is
			// deterministic: 1 in flight + 2 queued (coalescing is
			// blocked behind the stalled exec).
			time.Sleep(20 * time.Millisecond)
		}
	}
	time.Sleep(50 * time.Millisecond) // all twelve admitted or shed
	close(release)
	wg.Wait()

	var ok, shed, other int
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if reasons[i] != "queue_full" {
				t.Errorf("reason %q, want queue_full", reasons[i])
			}
			if retries[i] == "" {
				t.Error("429 without Retry-After")
			}
		default:
			other++
			t.Errorf("unexpected status %d (%s)", st, reasons[i])
		}
	}
	if shed == 0 {
		t.Fatal("overload produced zero sheds")
	}
	if ok == 0 {
		t.Fatal("overload completed zero jobs")
	}
	if other != 0 {
		t.Fatalf("%d non-200/429 responses under overload", other)
	}
	snap := s.Metrics()
	if snap.ShedQueueFull == 0 {
		t.Error("metrics: shed_queue_full = 0")
	}
	if snap.Completed != int64(ok) {
		t.Errorf("metrics: completed %d, want %d", snap.Completed, ok)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestFairnessIsolatesClient gives each client 1 token refilling at
// 1/s: a client's second immediate job is rate-limited while a fresh
// client still gets through.
func TestFairnessIsolatesClient(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, Rate: 1, Burst: 1, BreakerThreshold: -1})
	if st, _, _ := rawPost(t, ts, &Job{Alg: "sort", N: 8, Seed: 1, Client: "greedy"}); st != http.StatusOK {
		t.Fatalf("first greedy job: %d", st)
	}
	st, shed, ra := rawPost(t, ts, &Job{Alg: "sort", N: 8, Seed: 2, Client: "greedy"})
	if st != http.StatusTooManyRequests || shed.Reason != "rate_limited" {
		t.Fatalf("second greedy job: %d %+v, want 429 rate_limited", st, shed)
	}
	if ra == "" {
		t.Error("rate-limited without Retry-After")
	}
	if st, _, _ := rawPost(t, ts, &Job{Alg: "sort", N: 8, Seed: 3, Client: "polite"}); st != http.StatusOK {
		t.Fatalf("polite client shed alongside greedy one: %d", st)
	}
}

// TestBreakerStateMachine drives the breaker with a fake clock through
// closed → open → half-open probe → re-open (longer) → closed.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(2, time.Second, 8*time.Second, clock)
	boom := errors.New("boom")
	const class = "sort/otn/log/16/plain"

	if ok, probe, _ := b.Allow(class); !ok || probe {
		t.Fatal("fresh class not allowed plainly")
	}
	b.Record(class, boom)
	if ok, _, _ := b.Allow(class); !ok {
		t.Fatal("one failure must not trip a threshold-2 breaker")
	}
	b.Record(class, boom)
	ok, _, retry := b.Allow(class)
	if ok || retry <= 0 {
		t.Fatalf("after threshold: allowed=%v retry=%s", ok, retry)
	}
	if open, trips := b.OpenClasses(); open != 1 || trips != 1 {
		t.Fatalf("open=%d trips=%d, want 1/1", open, trips)
	}

	now = now.Add(1100 * time.Millisecond) // backoff base elapsed → half-open
	if ok, probe, _ := b.Allow(class); !ok || !probe {
		t.Fatal("half-open must admit one probe")
	}
	if ok, _, _ := b.Allow(class); ok {
		t.Fatal("half-open must admit only one probe")
	}
	b.Record(class, boom) // probe fails → re-open with doubled backoff
	if ok, _, retry := b.Allow(class); ok || retry <= time.Second {
		t.Fatalf("re-opened: allowed=%v retry=%s, want closed ≥ 2s", ok, retry)
	}

	now = now.Add(2100 * time.Millisecond)
	if ok, probe, _ := b.Allow(class); !ok || !probe {
		t.Fatal("second half-open probe refused")
	}
	b.Record(class, nil) // probe succeeds → closed
	if ok, _, _ := b.Allow(class); !ok {
		t.Fatal("closed breaker refused a job")
	}
	if open, trips := b.OpenClasses(); open != 0 || trips != 2 {
		t.Fatalf("open=%d trips=%d, want 0/2", open, trips)
	}
}

// TestBreakerProbeRelease pins the probe-leak fix: a half-open probe
// that never reaches Record (shed by fairness, dropped on a full
// queue, expired in the queue, or cancelled mid-run) must be Released,
// reopening the probe slot — otherwise the class answers 503 forever.
func TestBreakerProbeRelease(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(1, time.Second, 8*time.Second, clock)
	const class = "sort/otn/log/16/plain"

	b.Record(class, errors.New("boom")) // threshold 1 → open
	now = now.Add(1100 * time.Millisecond)
	if ok, probe, _ := b.Allow(class); !ok || !probe {
		t.Fatal("backoff elapsed: probe not admitted")
	}
	if ok, _, _ := b.Allow(class); ok {
		t.Fatal("second job admitted while probe in flight")
	}
	b.Release(class) // the probe was shed downstream, never ran
	if ok, probe, _ := b.Allow(class); !ok || !probe {
		t.Fatal("released probe slot did not readmit a probe; class is wedged")
	}
	b.Record(class, nil)
	if ok, _, _ := b.Allow(class); !ok {
		t.Fatal("probe success did not close the class")
	}
}

// TestBreakerTripsEndToEnd makes one class fail repeatedly through the
// HTTP path and checks the class starts answering fast 503s while a
// different class still runs.
func TestBreakerTripsEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8, Rate: -1, BreakerThreshold: 2})
	real := s.pool.exec
	s.pool.exec = func(ctx context.Context, jobs []*Job) ([]*report.Report, error) {
		if jobs[0].Alg == "cc" {
			return nil, errors.New("synthetic class failure")
		}
		return real(ctx, jobs)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	bad := &Job{Alg: "cc", N: 8, Seed: 1}
	for i := 0; i < 2; i++ {
		if st, _, _ := rawPost(t, ts, bad); st != http.StatusInternalServerError {
			t.Fatalf("failing job %d: status %d, want 500", i, st)
		}
	}
	st, shed, ra := rawPost(t, ts, bad)
	if st != http.StatusServiceUnavailable || shed.Reason != "breaker_open" {
		t.Fatalf("after threshold: %d %+v, want 503 breaker_open", st, shed)
	}
	if ra == "" {
		t.Error("breaker 503 without Retry-After")
	}
	if st, _, _ := rawPost(t, ts, &Job{Alg: "sort", N: 8, Seed: 1}); st != http.StatusOK {
		t.Fatalf("healthy class caught the open breaker: %d", st)
	}
	if snap := s.Metrics(); snap.RejectedBreaker == 0 || snap.BreakerTrips == 0 {
		t.Errorf("metrics: rejected_breaker=%d trips=%d", snap.RejectedBreaker, snap.BreakerTrips)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestBreakerProbeSurvivesFairnessShed pins the admission-order leak
// end-to-end: the breaker admits the half-open probe before fairness
// runs, so a probe shed with 429 must release the probe slot — the
// next job of the class (from a client with tokens) still probes
// instead of the class answering 503 until restart.
func TestBreakerProbeSurvivesFairnessShed(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	s := New(Config{Workers: 1, QueueCap: 8, Rate: 1, Burst: 1,
		BreakerThreshold: 1, Now: clock})
	real := s.pool.exec
	s.pool.exec = func(ctx context.Context, jobs []*Job) ([]*report.Report, error) {
		if jobs[0].Alg == "cc" {
			return nil, errors.New("synthetic class failure")
		}
		return real(ctx, jobs)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	bad := func(seed uint64, client string) *Job {
		return &Job{Alg: "cc", N: 8, Seed: seed, Client: client}
	}
	if st, _, _ := rawPost(t, ts, bad(1, "a")); st != http.StatusInternalServerError {
		t.Fatalf("failing job: %d, want 500 (and a tripped breaker)", st)
	}
	advance(1100 * time.Millisecond) // breaker backoff elapsed, a's bucket refilled
	if st, _, _ := rawPost(t, ts, &Job{Alg: "sort", N: 8, Seed: 2, Client: "a"}); st != http.StatusOK {
		t.Fatalf("good job spending a's token: %d", st)
	}
	// a's bucket is now empty: the breaker admits the half-open probe,
	// then fairness sheds it.
	st, shed, _ := rawPost(t, ts, bad(3, "a"))
	if st != http.StatusTooManyRequests || shed.Reason != "rate_limited" {
		t.Fatalf("probe shed: %d %+v, want 429 rate_limited", st, shed)
	}
	// Client b has tokens; its job must be admitted as the new probe
	// (it runs and fails with 500), not rejected breaker_open.
	if st, shed, _ := rawPost(t, ts, bad(4, "b")); st != http.StatusInternalServerError {
		t.Fatalf("post-shed probe: %d %+v, want 500 (probe ran)", st, shed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestStreamNullJob pins that a JSON array containing null entries
// answers per-line invalid envelopes instead of panicking the handler.
func TestStreamNullJob(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, Rate: -1, BreakerThreshold: -1})
	body := []byte(`[null, {"alg":"sort","n":8,"seed":1,"id":"ok1"}, null]`)
	resp, err := ts.Client().Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var invalid, ok int
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var item struct {
			JobID  string `json:"job_id"`
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := dec.Decode(&item); err != nil {
			t.Fatalf("decode: %v", err)
		}
		switch item.Status {
		case "invalid":
			invalid++
		case "ok":
			ok++
			if item.JobID != "ok1" {
				t.Errorf("ok line job_id %q", item.JobID)
			}
		default:
			t.Errorf("unexpected line: %+v", item)
		}
	}
	if invalid != 2 || ok != 1 {
		t.Fatalf("invalid=%d ok=%d, want 2/1", invalid, ok)
	}
}

// TestDeadlineQueued pins the 504 path: a job whose deadline expires
// while it waits behind a stalled worker answers 504, never holds a
// machine, and is counted as shed-before-start.
func TestDeadlineQueued(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 8, Rate: -1, BreakerThreshold: -1})
	release := make(chan struct{})
	var once sync.Once
	real := s.pool.exec
	s.pool.exec = func(ctx context.Context, jobs []*Job) ([]*report.Report, error) {
		once.Do(func() { <-release }) // stall only the first group
		return real(ctx, jobs)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rawPost(t, ts, &Job{Alg: "sort", N: 8, Seed: 1})
	}()
	time.Sleep(20 * time.Millisecond) // stall the worker on job 1

	st, shed, _ := rawPost(t, ts, &Job{Alg: "sort", N: 8, Seed: 2, DeadlineMS: 30})
	if st != http.StatusGatewayTimeout || shed.Reason != "deadline" {
		t.Fatalf("expired job: %d %+v, want 504 deadline", st, shed)
	}
	close(release)
	wg.Wait()

	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := s.Metrics()
		if snap.DeadlineBeforeStart >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deadline_before_start never counted: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDrain pins the shutdown ladder: every admitted job completes,
// post-drain submissions answer 503 draining, /healthz flips, and the
// pool's goroutines all join.
func TestDrain(t *testing.T) {
	g0 := runtime.NumGoroutine()
	s := New(Config{Workers: 2, QueueCap: 16, Rate: -1, BreakerThreshold: -1})
	ts := httptest.NewServer(s)

	const jobs = 8
	statuses := make([]int, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, _ = rawPost(t, ts, &Job{Alg: "sort", N: 16, Seed: uint64(i)})
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let submissions land
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK && st != http.StatusServiceUnavailable {
			t.Errorf("job %d: status %d during drain", i, st)
		}
	}

	st, shed, ra := rawPost(t, ts, &Job{Alg: "sort", N: 8, Seed: 99})
	if st != http.StatusServiceUnavailable || shed.Reason != "draining" {
		t.Fatalf("post-drain submit: %d %+v, want 503 draining", st, shed)
	}
	if ra == "" {
		t.Error("draining 503 without Retry-After")
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", resp.StatusCode)
	}

	ts.Close()
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak after drain: %d alive, baseline %d", runtime.NumGoroutine(), g0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseJoinsWorkers: every Open/Close cycle joins the worker
// pool, so repeated cycles leave the goroutine count at its baseline,
// and a Drain after Close stays safe (on a journaling server its final
// compaction fails on the closed journal, which is expected).
func TestCloseJoinsWorkers(t *testing.T) {
	g0 := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		cfg := Config{Workers: 4}
		if i%2 == 1 {
			cfg.JournalDir = t.TempDir()
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if i%3 == 0 {
			err := s.Drain(context.Background())
			if cfg.JournalDir == "" && err != nil {
				t.Fatalf("drain after close: %v", err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > g0 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after Open/Close cycles: %d alive, baseline %d", runtime.NumGoroutine(), g0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestValidation pins 400 on malformed jobs.
func TestValidation(t *testing.T) {
	ts := testServer(t, Config{Workers: 1})
	cases := []*Job{
		{Alg: "bogus", N: 16},
		{Alg: "sort", N: 12},  // not a power of two
		{Alg: "sort", N: 512}, // over MaxN
		{Alg: "sort", N: 16, Faults: -1},
		{Alg: "sort", N: 16, DeadlineMS: -5},
	}
	for i, j := range cases {
		if st, shed, _ := rawPost(t, ts, j); st != http.StatusBadRequest || shed.Reason != "invalid" {
			t.Errorf("case %d: %d %+v, want 400 invalid", i, st, shed)
		}
	}
	ev := 1
	if st, shed, _ := rawPost(t, ts, &Job{Alg: "sort", N: 16, Faults: 1, Events: &ev}); st != http.StatusBadRequest || shed.Reason != "invalid" {
		t.Errorf("faults+events: %d %+v, want 400 invalid", st, shed)
	}
}

// TestMetricsEndpoint sanity-checks the /metrics document.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, MaxLanes: 4, Rate: -1})
	for i := 0; i < 4; i++ {
		if st, _, _ := rawPost(t, ts, &Job{Alg: "sort", N: 16, Seed: uint64(i)}); st != http.StatusOK {
			t.Fatalf("job %d: %d", i, st)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Accepted != 4 || snap.Completed != 4 {
		t.Errorf("accepted=%d completed=%d, want 4/4", snap.Accepted, snap.Completed)
	}
	if snap.MCache.Hits+snap.MCache.Misses == 0 {
		t.Error("mcache counters empty")
	}
	if snap.PlanCache.Hits+snap.PlanCache.Misses == 0 {
		t.Error("plan-cache counters empty")
	}
	if snap.Workers != 2 || snap.QueueCap == 0 {
		t.Errorf("workers=%d queue_cap=%d", snap.Workers, snap.QueueCap)
	}
}
