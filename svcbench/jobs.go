package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/report"
	"repro/internal/server"
)

// Job classes of the jobs and batch workloads.
const (
	sortN    = 64  // SORT-OTN on the scalar (N×N)-OTN
	ccN      = 256 // connected components on the packed engine
	batchLen = 16  // jobs per NDJSON array
	// maxLanes is the server's default lane bound; the batch workload
	// relies on it, and the trace replays arrays in groups of it.
	maxLanes = 8
)

// Seed spaces keep every job seed of a run distinct, so no result
// cache can answer: seed = base<<30 | space<<28 | conn<<24 | k.
const (
	spaceWindow = iota
	spaceWarmup
	spaceSample
)

func jobSeed(base uint64, space, conn, k int) uint64 {
	return base<<30 | uint64(space)<<28 | uint64(conn)<<24 | uint64(k)
}

// seedBase maps the run seed to a 20-bit base; job seeds stay below
// 2^50, exact in any JSON reader.
func seedBase(seed uint64) uint64 { return splitmix64(seed) % (1 << 20) }

// jobSpec builds the job of one class: 0 is sort n=64, 1 packed cc
// n=256.
func jobSpec(id string, class int, seed uint64) server.Job {
	if class == 1 {
		return server.Job{ID: id, Client: "svcbench", Alg: "cc", N: ccN, Seed: seed, Packed: true}
	}
	return server.Job{ID: id, Client: "svcbench", Alg: "sort", N: sortN, Seed: seed}
}

// jobsConfig is the server configuration of the jobs and batch
// workloads: the defaults, except that per-client rate limiting is
// off (a closed loop would exceed the 50 jobs/s default bucket) and
// the queue holds both connections' arrays whole, so nothing is shed.
func jobsConfig() server.Config {
	return server.Config{Rate: -1, QueueCap: 4 * batchLen, MaxLanes: maxLanes}
}

// jobsRunner runs the jobs workload (single jobs, alternating class)
// or, with batch set, the batch workload (arrays of 16 sorts).
type jobsRunner struct {
	batch  bool
	base   uint64
	ck     *checker
	svc    *service
	client *http.Client

	refMu sync.Mutex
	ref   sortCost

	// twins holds the first packed cc answers of each connection; they
	// are checked against scalar twins after the window.
	twinMu sync.Mutex
	twins  []*report.Report
}

const twinsPerConn = 4

func (d *jobsRunner) conns() int { return 2 }

func (d *jobsRunner) setUp() error {
	svc, err := startService(jobsConfig())
	if err != nil {
		return err
	}
	d.svc, d.client = svc, newClient()
	// Solo runs of each class first: they fix the SORT-OTN reference
	// and build the packed tables.
	for k := 0; k < 8; k++ {
		seed := jobSeed(d.base, spaceWarmup, 3, k)
		rep, err := d.postJob(jobSpec(fmt.Sprintf("w-%d", k), k%2, seed))
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if k%2 == 0 {
			d.refMu.Lock()
			d.ck.fail(d.ref.solo(rep))
			d.refMu.Unlock()
		}
	}
	// Then the workload's own traffic from both connections, long
	// enough to build every machine the window will check out.
	var wg sync.WaitGroup
	for c := 0; c < d.conns(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 60
			if d.batch {
				n = 12
			}
			for k := 0; k < n; k++ {
				d.op(spaceWarmup, c, k)
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// postJob submits one job and checks the answer.
func (d *jobsRunner) postJob(j server.Job) (*report.Report, error) {
	body, _ := json.Marshal(&j)
	status, out, _, err := call(d.client, http.MethodPost, d.svc.url+"/jobs", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("job %s: status %d: %s", j.ID, status, out)
	}
	var rep report.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, err
	}
	return &rep, d.checkJob(&j, &rep)
}

// checkJob checks one answer against its request.
func (d *jobsRunner) checkJob(j *server.Job, r *report.Report) error {
	if r.JobID != j.ID || r.Alg != j.Alg || r.N != j.N || r.Seed != j.Seed || !r.Recovered || r.Error != "" {
		return fmt.Errorf("job %s: answer does not match its request: %+v", j.ID, *r)
	}
	if r.Cached || r.Coalesced {
		return fmt.Errorf("job %s: answered by the result cache, not executed", j.ID)
	}
	return checkAT2(r)
}

func (d *jobsRunner) windowOp(conn, k int) outcome { return d.op(spaceWindow, conn, k) }

func (d *jobsRunner) op(space, conn, k int) outcome {
	if d.batch {
		return d.postArray(space, conn, k)
	}
	class := k % 2
	seed := jobSeed(d.base, space, conn, k)
	j := jobSpec(fmt.Sprintf("%d-%d-%d", space, conn, k), class, seed)
	body, _ := json.Marshal(&j)
	status, out, lat, err := call(d.client, http.MethodPost, d.svc.url+"/jobs", body)
	o := outcome{lat: lat, attempted: 1}
	if err != nil || status != http.StatusOK {
		o.failed = 1
		return o
	}
	var rep report.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		d.ck.fail(fmt.Errorf("job %s: %w", j.ID, err))
		return o
	}
	d.ck.fail(d.checkJob(&j, &rep))
	if class == 0 {
		d.refMu.Lock()
		d.ck.fail(d.ref.check(&rep, "served"))
		d.refMu.Unlock()
	} else if space == spaceWindow && k/2 < twinsPerConn {
		d.twinMu.Lock()
		d.twins = append(d.twins, &rep)
		d.twinMu.Unlock()
	}
	return o
}

// streamLine is one NDJSON line of an array answer.
type streamLine struct {
	JobID  string         `json:"job_id"`
	Status string         `json:"status"`
	Report *report.Report `json:"report"`
}

// arraySpecs is the k-th array of a connection: 16 sort jobs.
func arraySpecs(base uint64, space, conn, k int) []server.Job {
	specs := make([]server.Job, batchLen)
	for i := range specs {
		idx := k*batchLen + i
		specs[i] = jobSpec(fmt.Sprintf("%d-%d-%d", space, conn, idx), 0, jobSeed(base, space, conn, idx))
	}
	return specs
}

// postArray submits one array. Every item whose status is not ok is a
// failed operation, although the array is answered 200.
func (d *jobsRunner) postArray(space, conn, k int) outcome {
	specs := arraySpecs(d.base, space, conn, k)
	body, _ := json.Marshal(specs)
	status, out, lat, err := call(d.client, http.MethodPost, d.svc.url+"/jobs", body)
	o := outcome{lat: lat, attempted: batchLen}
	if err != nil || status != http.StatusOK {
		o.failed = batchLen
		return o
	}
	lines, err := parseArray(out)
	if err != nil {
		d.ck.fail(err)
		o.failed = batchLen
		return o
	}
	o.failed = d.checkArray(specs, lines)
	return o
}

func parseArray(out []byte) ([]streamLine, error) {
	var lines []streamLine
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("array answer line: %w", err)
		}
		lines = append(lines, l)
	}
	return lines, sc.Err()
}

// checkArray checks an array answer item by item and returns how many
// of its jobs failed (not ok, or missing).
func (d *jobsRunner) checkArray(specs []server.Job, lines []streamLine) int {
	byID := make(map[string]*server.Job, len(specs))
	for i := range specs {
		byID[specs[i].ID] = &specs[i]
	}
	ok := 0
	for _, l := range lines {
		j := byID[l.JobID]
		if j == nil {
			d.ck.fail(fmt.Errorf("array answer for unknown or repeated job %q", l.JobID))
			continue
		}
		delete(byID, l.JobID)
		if l.Status != "ok" || l.Report == nil {
			continue
		}
		ok++
		d.ck.fail(d.checkJob(j, l.Report))
		d.refMu.Lock()
		d.ck.fail(d.ref.check(l.Report, "lane"))
		d.refMu.Unlock()
	}
	return len(specs) - ok
}

// afterWindow checks, outside the timed region, that packed cc answers
// equal their scalar twins: the same job with packed off.
func (d *jobsRunner) afterWindow() error {
	if len(d.twins) == 0 && !d.batch {
		return fmt.Errorf("no packed cc answers to check against scalar twins")
	}
	for i, p := range d.twins {
		j := server.Job{ID: fmt.Sprintf("twin-%d", i), Client: "svcbench", Alg: "cc", N: ccN, Seed: p.Seed}
		s, err := d.postJob(j)
		if err != nil {
			return fmt.Errorf("scalar twin: %w", err)
		}
		d.ck.fail(checkSame(fmt.Sprintf("packed cc seed %d vs scalar twin", p.Seed), p, s))
	}
	return nil
}

func (d *jobsRunner) snapshot() (server.Snapshot, error) { return readMetrics(d.client, d.svc.url) }

func (d *jobsRunner) tearDown() error { return d.svc.stop() }
