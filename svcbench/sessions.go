package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/workload"
)

const (
	sessN       = 1024 // packed session size of the sessions workload
	sessBatch   = 8    // explicit edge updates per batch
	sessWarmups = 40   // batches per session streamed during set-up
)

// journalConfig is the server configuration of the journaling
// workloads: the defaults plus a journal, with the background sweeper
// off so that no compaction lands inside a measured window at a time
// that depends on the run length (recover compacts by calling Sweep,
// at the default SnapshotEvery).
func journalConfig(dir string) server.Config {
	return server.Config{Rate: -1, JournalDir: dir, SweepInterval: -1}
}

// streamedSession is one resident session and the benchmark's own
// record of what it was sent and answered.
type streamedSession struct {
	id      string
	n       int
	seed    uint64
	initial *edgeSet
	stream  *updateStream
	updates []uint32 // every batch sent, encoded, sessBatch a batch
	comps   []int32  // the component count answered for each batch
	clock   int64
	last    *report.Report
	// keep, when set, retains every batch report (the recover trace
	// compares replayed tail batches with them).
	keep    bool
	reports []*report.Report
}

func newStreamedSession(n int, seed uint64) *streamedSession {
	g := workload.NewRNG(seed).Gnp(n, 2.0/float64(n))
	s := &streamedSession{n: n, seed: seed, initial: newEdgeSet(g)}
	s.stream = newUpdateStream(splitmix64(seed), g)
	return s
}

// create checks the session out on the server; the batch-0 report
// must count the initial graph's components.
func (s *streamedSession) create(c *http.Client, url string, packed bool) error {
	body, _ := json.Marshal(server.SessionSpec{Client: "svcbench", N: s.n, Seed: s.seed, Packed: packed})
	status, out, _, err := call(c, http.MethodPost, url+"/sessions", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("create session: status %d: %s", status, out)
	}
	var rep report.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		return err
	}
	if want := s.initial.components(); rep.Components != want {
		return fmt.Errorf("session %s: initial labeling counts %d components, union-find %d", rep.SessionID, rep.Components, want)
	}
	s.id, s.clock, s.last = rep.SessionID, rep.HealthyTime, &rep
	return nil
}

// updateBody is the wire body of one explicit batch.
func updateBody(batch []update) []byte {
	b, _ := json.Marshal(struct {
		Updates []update `json:"updates"`
	}{batch})
	return b
}

// send streams one batch. A transport error or a non-200 answer is a
// failed operation; a wrong answer is a failed check.
func (s *streamedSession) send(c *http.Client, url string, batch []update, ck *checker) (time.Duration, bool) {
	status, out, lat, err := call(c, http.MethodPost, url+"/sessions/"+s.id+"/updates", updateBody(batch))
	if err != nil || status != http.StatusOK {
		return lat, false
	}
	var rep report.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		ck.fail(fmt.Errorf("session %s: %w", s.id, err))
		return lat, true
	}
	want := len(s.comps) + 1
	if rep.SessionID != s.id || rep.Batch != want || rep.Updates != len(batch) || rep.N != s.n || !rep.Recovered ||
		rep.HealthyTime != s.clock+rep.Time {
		ck.fail(fmt.Errorf("session %s batch %d: answer does not follow the stream: %+v", s.id, want, rep))
	}
	ck.fail(checkAT2(&rep))
	for _, u := range batch {
		s.updates = append(s.updates, encodeUpdate(u))
	}
	s.comps = append(s.comps, int32(rep.Components))
	s.clock, s.last = rep.HealthyTime, &rep
	if s.keep {
		s.reports = append(s.reports, &rep)
	}
	return lat, true
}

// verify runs the union-find check over every batch the session took.
func (s *streamedSession) verify() error {
	if err := checkSessionStream(s.initial, s.updates, sessBatch, s.comps); err != nil {
		return fmt.Errorf("session %s: %w", s.id, err)
	}
	return nil
}

// sessionsRunner runs the sessions workload: two connections, each
// streaming 8-edge batches into its own packed n=1024 session on a
// journaling server.
type sessionsRunner struct {
	base   uint64
	dir    string
	ck     *checker
	svc    *service
	client *http.Client
	sess   []*streamedSession
}

func (d *sessionsRunner) conns() int { return 2 }

func (d *sessionsRunner) setUp() error {
	svc, err := startService(journalConfig(filepath.Join(d.dir, "journal")))
	if err != nil {
		return err
	}
	d.svc, d.client = svc, newClient()
	for c := 0; c < d.conns(); c++ {
		s := newStreamedSession(sessN, splitmix64(d.base<<8|uint64(c)))
		if err := s.create(d.client, svc.url, true); err != nil {
			return err
		}
		d.sess = append(d.sess, s)
	}
	for k := 0; k < sessWarmups; k++ {
		for _, s := range d.sess {
			if _, ok := s.send(d.client, svc.url, s.stream.next(sessBatch), d.ck); !ok {
				return fmt.Errorf("warm-up batch failed on session %s", s.id)
			}
		}
	}
	return nil
}

func (d *sessionsRunner) windowOp(conn, k int) outcome {
	s := d.sess[conn]
	lat, ok := s.send(d.client, d.svc.url, s.stream.next(sessBatch), d.ck)
	o := outcome{lat: lat, attempted: 1}
	if !ok {
		o.failed = 1
	}
	return o
}

func (d *sessionsRunner) afterWindow() error {
	for _, s := range d.sess {
		d.ck.fail(s.verify())
	}
	return nil
}

func (d *sessionsRunner) snapshot() (server.Snapshot, error) { return readMetrics(d.client, d.svc.url) }

func (d *sessionsRunner) tearDown() error { return d.svc.stop() }
