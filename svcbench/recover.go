package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/report"
	"repro/internal/server"
)

const (
	recTail = 30 // update records left after the snapshot
	recN    = 256
	// snapshotEvery is the server's default compaction threshold: the
	// sweeper compacts once the replay tail reaches it.
	snapshotEvery = 256
)

// crashJournal is a journal left by a stopped journaling server, plus
// what its sessions held when it stopped. It is written to a file, so
// restarts can run in fresh processes.
type crashJournal struct {
	Dir      string         `json:"dir"`
	Tail     int            `json:"tail"` // records a restart replays
	Sessions []crashSession `json:"sessions"`
	// ScalarTail are the live answers to the scalar session's tail
	// batches; replayed recoveries must reproduce them.
	ScalarTail []*report.Report `json:"scalar_tail"`
}

// crashSession is one session's state when the server stopped: its
// clock, batch count, the component count union-find gives, and its
// edges.
type crashSession struct {
	ID         string     `json:"id"`
	N          int        `json:"n"`
	Seed       uint64     `json:"seed"`
	Clock      int64      `json:"clock"`
	Batches    int        `json:"batches"`
	Components int        `json:"components"`
	Edges      [][2]int32 `json:"edges"`
}

// scalarSession is the index of the scalar n=256 session.
const scalarSession = 1

// buildCrashJournal drives a live journaling server through the
// session stream: a packed n=1024 session, a scalar n=256 one and its
// packed twin, fed round by round until the default compaction policy
// snapshots, then 30 more update records; then it stops the server
// without a final compaction. The scalar session's answers must equal
// its packed twin's, batch by batch.
func buildCrashJournal(dir string, base uint64, ck *checker) (*crashJournal, error) {
	svc, err := startService(journalConfig(dir))
	if err != nil {
		return nil, err
	}
	defer func() {
		if svc != nil {
			svc.crash()
		}
	}()
	client := newClient()
	big := newStreamedSession(sessN, splitmix64(base<<8|0xA))
	scalar := newStreamedSession(recN, splitmix64(base<<8|0xB))
	twin := newStreamedSession(recN, scalar.seed)
	scalar.keep = true
	all := []*streamedSession{big, scalar, twin}
	for i, s := range all {
		if err := s.create(client, svc.url, i != scalarSession); err != nil {
			return nil, err
		}
	}
	ck.fail(checkSame("scalar n=256 session vs packed twin, batch 0", scalar.last, twin.last))
	round := func() error {
		if _, ok := big.send(client, svc.url, big.stream.next(sessBatch), ck); !ok {
			return fmt.Errorf("crash journal: batch failed on session %s", big.id)
		}
		b := scalar.stream.next(sessBatch)
		twin.stream.set.apply(b)
		for _, s := range []*streamedSession{scalar, twin} {
			if _, ok := s.send(client, svc.url, b, ck); !ok {
				return fmt.Errorf("crash journal: batch failed on session %s", s.id)
			}
		}
		ck.fail(checkSame(fmt.Sprintf("scalar n=256 session vs packed twin, batch %d", len(scalar.comps)), scalar.last, twin.last))
		return nil
	}
	for svc.srv.Metrics().Durability.TailRecords < snapshotEvery {
		if err := round(); err != nil {
			return nil, err
		}
	}
	svc.srv.Sweep()
	if tail := svc.srv.Metrics().Durability.TailRecords; tail != 0 {
		return nil, fmt.Errorf("crash journal: compaction left %d tail records", tail)
	}
	cj := &crashJournal{Dir: dir}
	for cj.Tail < recTail {
		if err := round(); err != nil {
			return nil, err
		}
		cj.Tail += len(all)
	}
	for _, s := range all {
		ck.fail(s.verify())
		cj.Sessions = append(cj.Sessions, crashSession{ID: s.id, N: s.n, Seed: s.seed, Clock: s.clock,
			Batches: len(s.comps), Components: s.stream.set.components(), Edges: s.stream.set.list})
	}
	cj.ScalarTail = scalar.reports[len(scalar.reports)-cj.Tail/len(all):]
	svc.crash()
	svc = nil
	return cj, nil
}

func (cj *crashJournal) save(path string) error {
	b, err := json.Marshal(cj)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func loadCrashJournal(path string) (*crashJournal, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cj crashJournal
	return &cj, json.Unmarshal(b, &cj)
}

// restartResult is what one restart in a fresh process reports.
type restartResult struct {
	MS         float64         `json:"ms"`
	AllocBytes uint64          `json:"alloc_bytes"`
	PeakRSSMiB float64         `json:"peak_rss_mb"`
	Snapshot   server.Snapshot `json:"snapshot"`
	Error      string          `json:"error,omitempty"`
}

// restart is one full recovery from the crash journal: server.Open
// through replay and label verification, then Close. The state check
// between the two is not timed.
func (cj *crashJournal) restart() restartResult {
	var res restartResult
	a0 := allocBytes()
	t0 := time.Now()
	srv, err := server.Open(server.Config{JournalDir: cj.Dir, SweepInterval: -1})
	open := time.Since(t0)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Snapshot = srv.Metrics()
	if err := cj.checkState(srv, res.Snapshot); err != nil {
		res.Error = err.Error()
	}
	t1 := time.Now()
	srv.Close()
	res.MS = float64(open+time.Since(t1)) / float64(time.Millisecond)
	res.AllocBytes = allocBytes() - a0
	abandon(srv)
	return res
}

// checkState compares every recovered session with what the live one
// held, and the replay with the journal's tail.
func (cj *crashJournal) checkState(h http.Handler, snap server.Snapshot) error {
	if d := snap.Durability; d == nil || d.RecordsReplayed != int64(cj.Tail) || d.SessionsRecovered != int64(len(cj.Sessions)) {
		return fmt.Errorf("restart replayed %+v; want %d records and %d sessions", snap.Durability, cj.Tail, len(cj.Sessions))
	}
	for _, s := range cj.Sessions {
		var st sessionState
		if err := getDirect(h, "/sessions/"+s.ID, &st); err != nil {
			return err
		}
		if err := checkRecovered(st, s.Clock, s.Batches, s.Components); err != nil {
			return err
		}
	}
	return nil
}

// runRestartChild is the child side of one restart: a fresh process,
// so the restart pays what a restarted server pays (no route plans,
// packed tables or machines left over from an earlier restart).
func runRestartChild(spec string) error {
	cj, err := loadCrashJournal(spec)
	if err != nil {
		return err
	}
	res := cj.restart()
	if res.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		return err
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	return nil
}

// restartInChild runs one restart in a fresh process.
func restartInChild(o options, spec string) (restartResult, error) {
	var res restartResult
	line, err := child("--workload", "recover", "--workdir", o.workdir, "--restart-spec", spec)
	if err != nil {
		return res, err
	}
	return res, json.Unmarshal(line, &res)
}

// recoverJournals is how many crash journals, each from its own
// sub-seed, the recover workload cycles its restarts over. A restart's
// cost depends on its journal's graphs: with one journal, the medians of
// two sets of ten seeds differed by 13%, and with three the median
// restart is the middle journal's.
const recoverJournals = 5

// recoverRunner runs the recover workload: restarts back to back, each
// in a fresh process, cycling over the crash journals, from one client.
type recoverRunner struct {
	o     options
	base  uint64
	dir   string
	ck    *checker
	specs []string
	last  restartResult
	rss   []float64 // each restart child's VmHWM
}

func (d *recoverRunner) conns() int { return 1 }

func (d *recoverRunner) setUp() error {
	for j := 0; j < recoverJournals; j++ {
		cj, err := buildCrashJournal(filepath.Join(d.dir, fmt.Sprintf("crash-%d", j)), splitmix64(d.base<<3|uint64(j))%(1<<20), d.ck)
		if err != nil {
			return err
		}
		spec := filepath.Join(d.dir, fmt.Sprintf("crash-%d.json", j))
		if err := cj.save(spec); err != nil {
			return err
		}
		d.specs = append(d.specs, spec)
	}
	return nil
}

func (d *recoverRunner) windowOp(conn, k int) outcome {
	res, err := restartInChild(d.o, d.specs[k%len(d.specs)])
	o := outcome{lat: time.Duration(res.MS * float64(time.Millisecond)), attempted: 1}
	if err == nil && res.Error != "" {
		err = fmt.Errorf("restart: %s", res.Error)
	}
	if err != nil {
		d.ck.fail(err)
		o.failed = 1
		return o
	}
	o.allocBytes = res.AllocBytes
	d.last = res
	d.rss = append(d.rss, res.PeakRSSMiB)
	return o
}

func (d *recoverRunner) childRSS() []float64 { return d.rss }

func (d *recoverRunner) afterWindow() error { return nil }

func (d *recoverRunner) snapshot() (server.Snapshot, error) { return d.last.Snapshot, nil }

func (d *recoverRunner) tearDown() error { return nil }
