// Command svcbench is the repository's service benchmark. It runs one
// workload against an in-process otserve over loopback HTTP, checks
// every answer, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a traced replay) as one JSON line:
//
//	bash svcbench/run.sh --workload jobs --seed 1 --seconds 10 --trace 0
//
// Workloads: jobs, batch, sessions, recover; "all" runs each in its
// own process. --repeat k runs one workload k times in fresh processes
// (seeds seed … seed+k-1) and prints each metric's median and
// quartiles. See svcbench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/server"
)

var workloads = []string{"jobs", "batch", "sessions", "recover"}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner is one workload: set-up, the operation the closed loop
// repeats, the checks that follow the window, and the server's
// counters.
type runner interface {
	conns() int
	setUp() error
	windowOp(conn, k int) outcome
	afterWindow() error
	snapshot() (server.Snapshot, error)
	tearDown() error
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	workdir   string
	setupOnly bool
	repeat    int
	// Child modes of recover: one restart, or one replayed restart.
	restartSpec, replaySpec, spansOut string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "jobs | batch | sessions | recover | all")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: print the per-layer metrics of a traced replay")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "svcbench"), "directory for journals and spans")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "time one set-up and exit (used by the parent run)")
	flag.IntVar(&o.repeat, "repeat", 0, "run the workload this many times in fresh processes and summarize")
	flag.StringVar(&o.restartSpec, "restart-spec", "", "restart once from this crash journal and exit (used by recover)")
	flag.StringVar(&o.replaySpec, "replay-spec", "", "replay one restart from this crash journal and exit (used by the traced run)")
	flag.StringVar(&o.spansOut, "spans-out", "", "with --replay-spec and --trace 1, write the spans here")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	switch {
	case o.restartSpec != "":
		return runRestartChild(o.restartSpec)
	case o.replaySpec != "":
		return runReplayChild(o.replaySpec, o.trace, o.spansOut)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	switch {
	case o.workload == "all":
		return runAll(o)
	case o.repeat > 0:
		return runRepeat(o)
	}
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (jobs | batch | sessions | recover | all)", o.workload)
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if o.setupOnly {
		return runSetupOnly(o, dir)
	}
	res, err := runWorkload(o, dir)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return nil
}

func newRunner(o options, base uint64, dir string, ck *checker) runner {
	switch o.workload {
	case "jobs":
		return &jobsRunner{base: base, ck: ck}
	case "batch":
		return &jobsRunner{batch: true, base: base, ck: ck}
	case "sessions":
		return &sessionsRunner{base: base, dir: dir, ck: ck}
	default:
		return &recoverRunner{o: o, base: base, dir: dir, ck: ck}
	}
}

// timedSetUp runs one set-up and returns its wall time.
func timedSetUp(d runner) (float64, error) {
	t0 := time.Now()
	err := d.setUp()
	return time.Since(t0).Seconds(), err
}

func runSetupOnly(o options, dir string) error {
	ck := &checker{}
	d := newRunner(o, seedBase(o.seed), dir, ck)
	s, err := timedSetUp(d)
	if err != nil {
		return err
	}
	if err := d.tearDown(); err != nil {
		return err
	}
	if !ck.ok() {
		return fmt.Errorf("set-up checks failed: %v", ck.first(3))
	}
	fmt.Printf("{\"setup_s\":%g}\n", s)
	return nil
}

// child runs this program again with args and returns the last line
// of its standard output.
func child(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1], nil
}

func (o options) args(workload string, seed uint64, extra ...string) []string {
	return append([]string{"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--workdir", o.workdir}, extra...)
}

func runWorkload(o options, dir string) (*result, error) {
	base := seedBase(o.seed)
	fmt.Printf("# svcbench workload=%s seed=%d seconds=%d trace=%v %s\n", o.workload, o.seed, o.seconds, o.trace, hostInfo(dir))
	fmt.Printf("# inputs: seed base %d; job seeds base<<30|space<<28|conn<<24|k\n", base)

	// Set-up is timed in fresh processes, so every sample pays the
	// process-wide builds (packed tables, route plans) a first set-up
	// pays; this process's own set-up is one of the samples. recover's
	// set-up streams a few hundred batches and takes seconds, long
	// enough to repeat as one sample.
	nSetups := 5
	if o.workload == "recover" {
		nSetups = 1
	}
	var setups []float64
	for i := 1; i < nSetups; i++ {
		line, err := child(o.args(o.workload, o.seed, "--setup-only")...)
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var s struct {
			Setup float64 `json:"setup_s"`
		}
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		setups = append(setups, s.Setup)
	}
	ck := &checker{}
	d := newRunner(o, base, dir, ck)
	s, err := timedSetUp(d)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, s)
	// Collect the set-up's garbage before the window, so the first
	// operations do not pay for it.
	runtime.GC()

	before, err := d.snapshot()
	if err != nil {
		return nil, err
	}
	w := closedLoop(d.conns(), time.Duration(o.seconds)*time.Second, d.windowOp)
	after, err := d.snapshot()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if c, ok := d.(interface{ childRSS() []float64 }); ok {
		// recover's operations run in child processes; this process
		// only built the crash journals.
		rss = median(c.childRSS())
	}
	if err := d.afterWindow(); err != nil {
		return nil, err
	}
	final, err := d.snapshot()
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: w.attempted, Failed: w.failed + refused(final)}
	e2e := endToEnd(setups, w, rss)
	counters := layerCounters(before, after, w.ops)
	printMetrics("end-to-end", e2e)
	fmt.Printf("# setup_s samples %v\n", setups)
	fmt.Printf("# operations %d, attempted %d, failed %d (refused or cache-answered per /metrics: %d)\n",
		w.ops, w.attempted, res.Failed, refused(final))

	res.Metrics = e2e
	if o.trace {
		spans := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		layers, err := traceLayers(o, base^0xFFFFF, dir, spans, ck, counters)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		printMetrics("per-layer", layers)
		fmt.Printf("# spans written to %s\n", spans)
		res.Metrics = layers
	}
	if err := d.tearDown(); err != nil {
		return nil, err
	}
	res.Correct = ck.ok()
	for _, err := range ck.first(5) {
		fmt.Println("# CHECK FAILED:", err)
	}
	return res, nil
}

// refused counts, from a final /metrics snapshot, every request the
// server shed or refused and every answer the result cache gave
// instead of executing: each is a failed operation here.
func refused(s server.Snapshot) int {
	n := s.ShedQueueFull + s.ShedRateLimited + s.RejectedBreaker
	if rc := s.ResultCache; rc != nil {
		n += rc.Hits + rc.Coalesced
	}
	return int(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd reduces a window to the end-to-end metrics. The window is
// cut into up to ten equal time slices, and throughput and the 99th
// percentile are the medians of their per-slice values, so a burst of
// interference from outside the benchmark moves one slice, not the
// figure. A slice must hold 20 operations for a rate and 1000 for a
// 99th percentile (ten beyond it); with fewer, the whole window is one
// slice. A window of fewer than 200 operations (recover's few
// restarts) supports no tail: its slices need only 5 operations, so its
// op_p99_ms is the median of the slices' slowest operations and one
// stalled restart does not set it.
func endToEnd(setups []float64, w window, rss float64) map[string]metric {
	lat := durationsMS(w.lats)
	rate := sliced("ops_per_s", w, 20, func(lats []float64, d time.Duration) float64 { return float64(len(lats)) / d.Seconds() })
	tailOps := 1000
	if w.ops < 200 {
		tailOps = 5
	}
	p99 := sliced("op_p99_ms", w, tailOps, func(lats []float64, _ time.Duration) float64 { return quantile(lats, 0.99) })
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {rate, "1/s"},
		"op_p50_ms":       {median(lat), "ms"},
		"op_p99_ms":       {p99, "ms"},
		"alloc_kb_per_op": {float64(w.allocBytes) / float64(w.ops) / 1024, "KiB"},
		"peak_rss_mb":     {rss, "MiB"},
	}
}

// sliced applies f to the latencies (ms) completing in each of up to
// ten equal slices of the window, prints the values and returns their
// median, using as many slices as leave at least minOps operations in
// each.
func sliced(name string, w window, minOps int, f func(lats []float64, d time.Duration) float64) float64 {
	n := min(10, w.ops/minOps)
	if n < 2 {
		return f(durationsMS(w.lats), w.elapsed)
	}
	width := w.elapsed / time.Duration(n)
	parts := make([][]float64, n)
	for i, e := range w.ends {
		k := min(int(e/width), n-1)
		parts[k] = append(parts[k], float64(w.lats[i])/float64(time.Millisecond))
	}
	vals := make([]float64, n)
	for k := range parts {
		vals[k] = f(parts[k], width)
	}
	fmt.Printf("# %s per slice %.4g\n", name, vals)
	return median(vals)
}

// layerCounters derives the per-layer counters of the untraced window
// from the server's /metrics before and after it (for recover, the
// last restart's figures). A counter whose layer does no work in the
// workload reads 0.
func layerCounters(b, a server.Snapshot, ops int) map[string]metric {
	per := func(x int64) float64 { return float64(x) / float64(ops) }
	m := map[string]metric{
		"server.lane_avg_occupancy": {ratio(a.LaneJobs-b.LaneJobs, a.LaneGroups-b.LaneGroups), "jobs"},
		"server.lane_groups_per_op": {per(a.LaneGroups - b.LaneGroups), "count"},
		"mcache.hit_ratio": {ratio(int64(a.MCache.Hits-b.MCache.Hits),
			int64(a.MCache.Hits-b.MCache.Hits+a.MCache.Misses-b.MCache.Misses)), "ratio"},
		"mcache.waits_per_op": {per(int64(a.MCache.Waits - b.MCache.Waits)), "count"},
		"tree.plan_hit_ratio": {ratio(a.PlanCache.Hits-b.PlanCache.Hits,
			a.PlanCache.Hits-b.PlanCache.Hits+a.PlanCache.Misses-b.PlanCache.Misses), "ratio"},
		"rescache.misses_per_op":  {0, "count"},
		"server.records_replayed": {0, "count"},
	}
	if a.ResultCache != nil && b.ResultCache != nil {
		m["rescache.misses_per_op"] = metric{per(a.ResultCache.Misses - b.ResultCache.Misses), "count"}
	}
	if a.Durability != nil {
		m["server.records_replayed"] = metric{float64(a.Durability.RecordsReplayed), "count"}
	}
	return m
}

func printMetrics(title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# %s metrics\n", title)
	for _, k := range names {
		fmt.Printf("#   %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// runAll runs every workload, each in its own process.
func runAll(o options) error {
	all := map[string]json.RawMessage{}
	for _, w := range workloads {
		extra := []string{"--trace", "0"}
		if o.trace {
			extra[1] = "1"
		}
		line, err := child(o.args(w, o.seed, extra...)...)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %s\n", w, line)
		all[w] = line
	}
	out, _ := json.Marshal(all)
	fmt.Println(string(out))
	return nil
}

// runRepeat runs one workload k times in fresh processes and prints
// each metric's median, quartiles and spread, the figures bounds are
// set from.
func runRepeat(o options) error {
	vals := map[string][]float64{}
	units := map[string]string{}
	var seeds []uint64
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + uint64(i)
		extra := []string{"--trace", "0"}
		if o.trace {
			extra[1] = "1"
		}
		line, err := child(o.args(o.workload, seed, extra...)...)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		fmt.Printf("# run %d seed %d correct=%v attempted=%d failed=%d\n", i+1, seed, r.Correct, r.Attempted, r.Failed)
		seeds = append(seeds, seed)
		for k, m := range r.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	fmt.Printf("# workload %s, %d runs, seeds %v, %s\n", o.workload, o.repeat, seeds, hostInfo(o.workdir))
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-34s %12s %12s %12s %8s %s\n", "metric", "median", "q1", "q3", "spread", "unit")
	for _, k := range names {
		med := median(vals[k])
		q1, q3 := quantile(vals[k], 0.25), quantile(vals[k], 0.75)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(w, "%-34s %12.4f %12.4f %12.4f %7.1f%% %s\n", k, med, q1, q3, 100*spread, units[k])
	}
	return w.Flush()
}
