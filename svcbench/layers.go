package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/sorting"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/mcache"
	"repro/internal/packed"
	"repro/internal/report"
	"repro/internal/rescache"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Sample sizes of the traced run: a fixed number of operations of
// every workload, so every layer is measured in every traced run.
const (
	sampleJobs     = 24 // per class
	sampleArrays   = 6
	sampleBatches  = 48
	sampleRestarts = 3
	sampleBuilds   = 3
	burstBatches   = 100 // per connection, for the group-commit factor
)

// served is one sample operation as the service answered it.
type served struct {
	body  []byte
	lat   time.Duration
	class int
	reps  []*report.Report
}

// layerSample is what the traced run serves before replaying it.
type layerSample struct {
	jobs, arrays, batches []served
	sessSeed              uint64
	sessID                string
	crash                 string // crash journal spec file
	recordsPerFsync       float64
	restartMS             []float64 // client-observed restart times
	recoveryMS            []float64 // the server's own recovery_ms
}

func jobConfig(n int) vlsi.Config {
	return vlsi.Config{WordBits: vlsi.WordBitsFor(n * n), Model: vlsi.LogDelay{}}
}

// serveSample serves the sample operations through the real service,
// one at a time on one connection, and records the answers.
func serveSample(o options, base uint64, dir string, ck *checker) (*layerSample, error) {
	ls := &layerSample{}
	d := &jobsRunner{base: base, ck: ck}
	if err := d.setUp(); err != nil {
		return nil, err
	}
	for i := 0; i < 2*sampleJobs; i++ {
		j := jobSpec(fmt.Sprintf("s-%d", i), i%2, jobSeed(base, spaceSample, 0, i))
		body, _ := json.Marshal(&j)
		status, out, lat, err := call(d.client, http.MethodPost, d.svc.url+"/jobs", body)
		if err != nil || status != http.StatusOK {
			d.tearDown()
			return nil, fmt.Errorf("sample job %s: status %d %v", j.ID, status, err)
		}
		var rep report.Report
		if err := json.Unmarshal(out, &rep); err != nil {
			d.tearDown()
			return nil, err
		}
		ck.fail(d.checkJob(&j, &rep))
		ls.jobs = append(ls.jobs, served{body: body, lat: lat, class: i % 2, reps: []*report.Report{&rep}})
	}
	for k := 0; k < sampleArrays; k++ {
		specs := arraySpecs(base, spaceSample, 1, k)
		body, _ := json.Marshal(specs)
		status, out, lat, err := call(d.client, http.MethodPost, d.svc.url+"/jobs", body)
		if err != nil || status != http.StatusOK {
			d.tearDown()
			return nil, fmt.Errorf("sample array: status %d %v", status, err)
		}
		lines, err := parseArray(out)
		if err != nil {
			d.tearDown()
			return nil, err
		}
		if failed := d.checkArray(specs, lines); failed > 0 {
			d.tearDown()
			return nil, fmt.Errorf("sample array: %d jobs failed", failed)
		}
		s := served{body: body, lat: lat}
		for _, l := range lines {
			s.reps = append(s.reps, l.Report)
		}
		ls.arrays = append(ls.arrays, s)
	}
	if err := d.tearDown(); err != nil {
		return nil, err
	}

	svc, err := startService(journalConfig(filepath.Join(dir, "sample-journal")))
	if err != nil {
		return nil, err
	}
	client := newClient()
	sess := newStreamedSession(sessN, splitmix64(base<<8|0xC))
	if err := sess.create(client, svc.url, true); err != nil {
		svc.stop()
		return nil, err
	}
	ls.sessSeed, ls.sessID = sess.seed, sess.id
	for k := 0; k < sampleBatches; k++ {
		batch := sess.stream.next(sessBatch)
		lat, ok := sess.send(client, svc.url, batch, ck)
		if !ok {
			svc.stop()
			return nil, fmt.Errorf("sample batch failed")
		}
		ls.batches = append(ls.batches, served{body: updateBody(batch), lat: lat, reps: []*report.Report{sess.last}})
	}
	// Group commit only shows under concurrent appends: two
	// connections stream into two sessions, and the journal's records
	// per fsync are read around the burst.
	sess2 := newStreamedSession(sessN, splitmix64(base<<8|0xD))
	if err := sess2.create(client, svc.url, true); err != nil {
		svc.stop()
		return nil, err
	}
	d0 := svc.srv.Metrics().Durability
	var wg sync.WaitGroup
	for _, s := range []*streamedSession{sess, sess2} {
		wg.Add(1)
		go func(s *streamedSession) {
			defer wg.Done()
			for k := 0; k < burstBatches; k++ {
				if _, ok := s.send(client, svc.url, s.stream.next(sessBatch), ck); !ok {
					ck.fail(fmt.Errorf("burst batch failed on session %s", s.id))
					return
				}
			}
		}(s)
	}
	wg.Wait()
	d1 := svc.srv.Metrics().Durability
	ls.recordsPerFsync = ratio(d1.JournalRecords-d0.JournalRecords, d1.FsyncBatches-d0.FsyncBatches)
	ck.fail(sess.verify())
	ck.fail(sess2.verify())
	if err := svc.stop(); err != nil {
		return nil, err
	}

	cj, err := buildCrashJournal(filepath.Join(dir, "sample-crash"), base, ck)
	if err != nil {
		return nil, err
	}
	ls.crash = filepath.Join(dir, "sample-crash.json")
	if err := cj.save(ls.crash); err != nil {
		return nil, err
	}
	for r := 0; r < sampleRestarts; r++ {
		res, err := restartInChild(o, ls.crash)
		if err == nil && res.Error != "" {
			err = fmt.Errorf("restart: %s", res.Error)
		}
		if err != nil {
			return nil, err
		}
		ls.restartMS = append(ls.restartMS, res.MS)
		ls.recoveryMS = append(ls.recoveryMS, float64(res.Snapshot.Durability.RecoveryMS))
	}
	return ls, nil
}

// replayer calls the layers' public functions directly, with the
// inputs the service was sent, mirroring what the server does with
// them.
type replayer struct {
	tr        *tracer
	ck        *checker
	mc        *mcache.Cache
	resc      *rescache.Cache
	jl        *journal.Journal
	laneAlloc uint64
	lanes     int
	snapBytes int
}

// jobReport builds the report the executor builds for a healthy job.
func jobReport(j *server.Job, t vlsi.Time, a vlsi.Area) *report.Report {
	return &report.Report{
		Alg: j.Alg, Network: "otn", Model: vlsi.LogDelay{}.Name(), N: j.N, Seed: j.Seed,
		Time: int64(t), Area: int64(a), AT2: vlsi.Metric{Area: a, Time: t}.AT2(),
		Recovered: true, JobID: j.ID,
	}
}

func sortKey() mcache.Key { return mcache.OTNKey(sortN, jobConfig(sortN)) }

func buildSort() (*core.Machine, error) { return core.New(sortN, jobConfig(sortN)) }

// job replays one single-job request.
func (r *replayer) job(body []byte) *report.Report {
	tr := r.tr
	var j server.Job
	var err error
	tr.span("server.decode", func() { err = json.Unmarshal(body, &j) })
	if err != nil {
		r.ck.fail(err)
		return nil
	}
	var fp string
	tr.span("rescache.fingerprint", func() { fp = j.Fingerprint() })
	var fl *rescache.Flight
	var leader bool
	tr.span("rescache.lookup", func() { _, fl, leader = r.resc.Lookup(fp) })
	if !leader {
		r.ck.fail(fmt.Errorf("replay of job %s was answered by the result cache", j.ID))
		return nil
	}
	var rep *report.Report
	tr.span("server.exec", func() { rep = r.exec(&j) })
	var out []byte
	tr.span("report.encode", func() { out, err = rep.Marshal() })
	r.ck.fail(err)
	tr.span("rescache.resolve", func() { r.resc.Resolve(fp, fl, nil, out) })
	return rep
}

// exec is the executor's solo path for the two job classes.
func (r *replayer) exec(j *server.Job) *report.Report {
	tr := r.tr
	var err error
	if j.Packed {
		var eng *packed.Engine
		tr.span("packed.engine_for", func() { eng, err = packed.EngineFor(j.N, jobConfig(j.N), false) })
		if err != nil {
			r.ck.fail(err)
			return nil
		}
		var g *workload.Graph
		tr.span("workload.gnp", func() { g = workload.NewRNG(j.Seed).Gnp(j.N, 2.0/float64(j.N)) })
		var t vlsi.Time
		tr.span("packed.components", func() { _, t = eng.Components(g, 0) })
		return jobReport(j, t, eng.Area())
	}
	var m *core.Machine
	tr.span("mcache.checkout", func() { m, err = r.mc.CheckoutContext(context.Background(), sortKey(), buildSort) })
	if err != nil {
		r.ck.fail(err)
		return nil
	}
	var xs []int64
	tr.span("workload.perm", func() { xs = workload.NewRNG(j.Seed).Perm(j.N) })
	var t vlsi.Time
	tr.span("sorting.sortotn", func() { _, t = sorting.SortOTN(m, xs, 0) })
	r.ck.fail(m.Err())
	rep := jobReport(j, t, m.Area())
	tr.span("mcache.return", func() { r.mc.Return(sortKey(), m) })
	return rep
}

// array replays one NDJSON array: decode, fingerprint and miss per
// job, lane execution in groups of the server's lane bound, encode.
func (r *replayer) array(body []byte) []*report.Report {
	tr := r.tr
	var specs []*server.Job
	var err error
	tr.span("server.decode", func() { err = json.Unmarshal(body, &specs) })
	if err != nil {
		r.ck.fail(err)
		return nil
	}
	fps := make([]string, len(specs))
	fls := make([]*rescache.Flight, len(specs))
	for i, j := range specs {
		tr.span("rescache.fingerprint", func() { fps[i] = j.Fingerprint() })
		var leader bool
		tr.span("rescache.lookup", func() { _, fls[i], leader = r.resc.Lookup(fps[i]) })
		if !leader {
			r.ck.fail(fmt.Errorf("replay of job %s was answered by the result cache", j.ID))
			return nil
		}
	}
	var reps []*report.Report
	tr.span("server.runbatch", func() {
		for g := 0; g < len(specs); g += maxLanes {
			reps = append(reps, r.laneGroup(specs[g:min(g+maxLanes, len(specs))])...)
		}
	})
	for i, rep := range reps {
		var out []byte
		tr.span("report.encode", func() { out, err = rep.Marshal() })
		r.ck.fail(err)
		tr.span("rescache.resolve", func() { r.resc.Resolve(fps[i], fls[i], nil, out) })
	}
	return reps
}

// laneGroup is the executor's lane path: one checkout, one core.Batch.
func (r *replayer) laneGroup(group []*server.Job) []*report.Report {
	tr := r.tr
	var m *core.Machine
	var err error
	tr.span("mcache.checkout", func() { m, err = r.mc.CheckoutContext(context.Background(), sortKey(), buildSort) })
	if err != nil {
		r.ck.fail(err)
		return nil
	}
	var bb *core.Batch
	tr.span("core.newbatch", func() { bb, err = core.NewBatch(m, len(group)) })
	if err != nil {
		r.ck.fail(err)
		r.mc.Return(sortKey(), m)
		return nil
	}
	problems := make([][]int64, len(group))
	tr.span("workload.perm", func() {
		for p, j := range group {
			problems[p] = workload.NewRNG(j.Seed).Perm(j.N)
		}
	})
	var times []vlsi.Time
	a0 := allocBytes()
	tr.span("sorting.batch", func() { _, times = sorting.SortOTNBatch(bb, problems) })
	r.laneAlloc += allocBytes() - a0
	r.lanes += len(group)
	r.ck.fail(bb.Err())
	reps := make([]*report.Report, len(group))
	for p, j := range group {
		reps[p] = jobReport(j, times[p], m.Area())
	}
	tr.span("mcache.return", func() { r.mc.Return(sortKey(), m) })
	return reps
}

// walUpdate mirrors the server's journal record of one update batch.
type walUpdate struct {
	T   string `json:"t"`
	SID string `json:"sid,omitempty"`
	Req *struct {
		Updates []update `json:"updates"`
	} `json:"req,omitempty"`
}

// sessionReplica is the benchmark's own copy of a packed session.
type sessionReplica struct {
	id    string
	seed  uint64
	inc   *packed.Incremental
	area  vlsi.Area
	clock vlsi.Time
	batch int
}

func newSessionReplica(id string, seed uint64) (*sessionReplica, error) {
	eng, err := packed.EngineFor(sessN, jobConfig(sessN), false)
	if err != nil {
		return nil, err
	}
	g := workload.NewRNG(seed).Gnp(sessN, 2.0/float64(sessN))
	inc, t0 := packed.NewIncremental(eng, g, 0)
	return &sessionReplica{id: id, seed: seed, inc: inc, area: eng.Area(), clock: t0}, nil
}

// sessionReport builds the server's per-batch session report.
func sessionReport(n int, seed uint64, id string, batch int, dur, clock vlsi.Time, area vlsi.Area, st graph.BatchStats, labels []int64) *report.Report {
	distinct := make(map[int64]bool, len(labels))
	for _, l := range labels {
		distinct[l] = true
	}
	return &report.Report{
		Alg: "cc", Network: "otn", Model: vlsi.LogDelay{}.Name(), N: n, Seed: seed,
		Time: int64(dur), Area: int64(area), AT2: vlsi.Metric{Area: area, Time: dur}.AT2(),
		HealthyTime: int64(clock), Recovered: true, SessionID: id, Batch: batch,
		Updates: st.Updates, Affected: st.Affected, Components: len(distinct),
	}
}

// sessionBatch replays one update batch: decode, journal append
// (fsynced), packed incremental labeling, report, encode.
func (r *replayer) sessionBatch(s *sessionReplica, body []byte) *report.Report {
	tr := r.tr
	var rec walUpdate
	var err error
	tr.span("server.decode", func() { err = json.Unmarshal(body, &rec.Req) })
	if err != nil {
		r.ck.fail(err)
		return nil
	}
	rec.T, rec.SID = "update", s.id
	var payload []byte
	tr.span("journal.encode", func() { payload, err = json.Marshal(&rec) })
	r.ck.fail(err)
	tr.span("journal.append", func() { err = r.jl.Append(payload) })
	r.ck.fail(err)
	batch := make([]workload.EdgeUpdate, len(rec.Req.Updates))
	for i, u := range rec.Req.Updates {
		batch[i] = workload.EdgeUpdate{U: u.U, V: u.V, Add: u.Add}
	}
	before := s.clock
	var done vlsi.Time
	tr.span("packed.incremental", func() { _, done = s.inc.ApplyBatch(batch, before) })
	s.clock = done
	s.batch++
	var rep *report.Report
	tr.span("server.report", func() {
		rep = sessionReport(sessN, s.seed, s.id, s.batch, done-before, done, s.area, s.inc.Stats(), s.inc.Labels())
	})
	tr.span("report.encode", func() { _, err = rep.Marshal() })
	r.ck.fail(err)
	return rep
}

// snapMirror is the part of the server's snapshot the scalar replay
// reads.
type snapMirror struct {
	Sessions []struct {
		ID      string                   `json:"id"`
		State   *resilience.SessionState `json:"state"`
		Clock   int64                    `json:"clock"`
		Batches int                      `json:"batches"`
	} `json:"sessions"`
}

// restart replays one recovery: the journal layer alone, the whole
// server.Open, and the scalar n=256 session's recovery through the
// engine layers (machine build, full labeling, resume, tail replay).
// It returns the replayed reports of the scalar session's tail batches.
// It runs in a fresh process, as the restarts it replays do.
func (r *replayer) restart(cj *crashJournal) []*report.Report {
	tr := r.tr
	var blob []byte
	var recs [][]byte
	var err error
	tr.span("journal.open_replay", func() {
		var jl *journal.Journal
		if jl, err = journal.Open(cj.Dir); err != nil {
			return
		}
		blob, _ = jl.Snapshot()
		_, err = jl.Replay(func(p []byte) error { recs = append(recs, append([]byte(nil), p...)); return nil })
		if cerr := jl.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		r.ck.fail(err)
		return nil
	}
	r.snapBytes = len(blob)
	if len(recs) != cj.Tail {
		r.ck.fail(fmt.Errorf("journal replay delivered %d records, want %d", len(recs), cj.Tail))
	}
	var srv *server.Server
	tr.span("server.open", func() { srv, err = server.Open(server.Config{JournalDir: cj.Dir, SweepInterval: -1}) })
	if err != nil {
		r.ck.fail(err)
		return nil
	}
	tr.span("bench.check", func() { r.ck.fail(cj.checkState(srv, srv.Metrics())) })
	tr.span("server.close", func() { srv.Close() })
	tr.span("bench.cleanup", func() { abandon(srv) })

	for _, s := range cj.Sessions {
		g := workload.NewGraph(s.N)
		for _, e := range s.Edges {
			g.AddEdge(int(e[0]), int(e[1]))
		}
		var labels []int64
		tr.span("workload.oracle", func() { labels = workload.NewOracle(g).Labels() })
		if got := distinctCount(labels); got != s.Components {
			r.ck.fail(fmt.Errorf("oracle counts %d components for session %s, union-find %d", got, s.ID, s.Components))
		}
	}

	scalar := cj.Sessions[scalarSession]
	var snap snapMirror
	tr.span("server.snapshot_decode", func() { err = json.Unmarshal(blob, &snap) })
	if err != nil {
		r.ck.fail(err)
		return nil
	}
	var state *resilience.SessionState
	var clock vlsi.Time
	var batchNo int
	for _, ss := range snap.Sessions {
		if ss.ID == scalar.ID {
			state, clock, batchNo = ss.State, vlsi.Time(ss.Clock), ss.Batches
		}
	}
	if state == nil {
		r.ck.fail(fmt.Errorf("snapshot holds no state for session %s", scalar.ID))
		return nil
	}
	g, err := state.Graph()
	if err != nil {
		r.ck.fail(err)
		return nil
	}
	var m *core.Machine
	tr.span("core.build256", func() { m, err = core.New(recN, jobConfig(recN)) })
	if err != nil {
		r.ck.fail(err)
		return nil
	}
	var full *graph.Incremental
	tr.span("graph.components256", func() { full, _ = graph.NewIncremental(m, g, 0) })
	if !sameLabels(full.Labels(), state.Labels) {
		r.ck.fail(fmt.Errorf("full relabeling of the snapshot graph disagrees with the snapshot's labels"))
	}
	m.Recycle()
	var inc *graph.Incremental
	tr.span("graph.resume", func() { inc = graph.ResumeIncremental(m, g, state.Labels) })
	var reps []*report.Report
	for _, p := range recs {
		var rec walUpdate
		if err := json.Unmarshal(p, &rec); err != nil || rec.T != "update" || rec.SID != scalar.ID || rec.Req == nil {
			continue
		}
		batch := make([]workload.EdgeUpdate, len(rec.Req.Updates))
		for i, u := range rec.Req.Updates {
			batch[i] = workload.EdgeUpdate{U: u.U, V: u.V, Add: u.Add}
		}
		before := clock
		tr.span("graph.incremental", func() { _, clock = inc.ApplyBatch(batch, before) })
		r.ck.fail(m.Err())
		batchNo++
		reps = append(reps, sessionReport(recN, scalar.Seed, scalar.ID, batchNo, clock-before, clock, m.Area(), inc.Stats(), inc.Labels()))
	}
	return reps
}

func distinctCount(labels []int64) int {
	seen := make(map[int64]bool, len(labels))
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

func sameLabels(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// traceLayers is the traced run: it serves the sample, replays every
// operation twice (untraced and traced), checks every replayed answer
// against the served one, writes the spans to spansPath and reduces them to the
// per-layer metrics. counters are the untraced window's /metrics
// figures.
func traceLayers(o options, base uint64, dir, spansPath string, ck *checker, counters map[string]metric) (map[string]metric, error) {
	ls, err := serveSample(o, base, dir, ck)
	if err != nil {
		return nil, err
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	// Every sample operation is replayed twice, by an untraced and a
	// traced replayer with their own caches, journal and session
	// replica; the order alternates, so neither pass always runs on
	// warmer caches. The difference is the tracing overhead.
	var rps [2]*replayer
	var replicas [2]*sessionReplica
	times := [2]map[string][]float64{{}, {}}
	for i := range rps {
		rps[i] = &replayer{tr: newTracer(i == 1), ck: ck, mc: mcache.NewWithCapacity(4), resc: rescache.New(0)}
		m, err := rps[i].mc.CheckoutContext(context.Background(), sortKey(), buildSort)
		if err != nil {
			return nil, err
		}
		rps[i].mc.Return(sortKey(), m)
		if rps[i].jl, err = journal.Open(filepath.Join(dir, fmt.Sprintf("replay-journal-%d", i))); err != nil {
			return nil, err
		}
		defer rps[i].jl.Close()
		if replicas[i], err = newSessionReplica(ls.sessID, ls.sessSeed); err != nil {
			return nil, err
		}
	}
	opNo := 0
	twice := func(kind string, served []*report.Report, replay func(r *replayer, p int) []*report.Report) {
		for k := 0; k < 2; k++ {
			p := (opNo + k) % 2
			var reps []*report.Report
			d := rps[p].tr.run(kind, func() { reps = replay(rps[p], p) })
			times[p][kind] = append(times[p][kind], us(d))
			ck.fail(checkReplay(served, reps))
		}
		opNo++
	}
	for _, s := range ls.jobs {
		kind := "job.sort"
		if s.class == 1 {
			kind = "job.cc"
		}
		twice(kind, s.reps, func(r *replayer, _ int) []*report.Report { return []*report.Report{r.job(s.body)} })
	}
	for _, s := range ls.arrays {
		twice("batch", s.reps, func(r *replayer, _ int) []*report.Report { return r.array(s.body) })
	}
	for _, s := range ls.batches {
		twice("session", s.reps, func(r *replayer, p int) []*report.Report {
			return []*report.Report{r.sessionBatch(replicas[p], s.body)}
		})
	}
	for k := 0; k < sampleRestarts; k++ {
		for i := 0; i < 2; i++ {
			p := (opNo + i) % 2
			us, snapBytes, err := replayInChild(o, ls.crash, rps[p].tr, filepath.Join(dir, "restart-spans.jsonl"))
			if err != nil {
				return nil, err
			}
			times[p]["restart"] = append(times[p]["restart"], us)
			rps[p].snapBytes = snapBytes
		}
		opNo++
	}
	tr, rp := rps[1].tr, rps[1]
	for k := 0; k < sampleBuilds; k++ {
		tr.run("build", func() {
			var err error
			tr.span("core.build64", func() { _, err = core.New(sortN, jobConfig(sortN)) })
			ck.fail(err)
			tr.span("packed.engine_build", func() { _, err = packed.New(sessN, jobConfig(sessN)) })
			ck.fail(err)
		})
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	for _, kind := range []string{"job.sort", "job.cc", "batch", "session", "restart"} {
		u, t := median(times[0][kind]), median(times[1][kind])
		fmt.Printf("# trace overhead %-8s untraced %10.1f us  traced %10.1f us  (%+.1f%%)\n", kind, u, t, 100*(t-u)/u)
	}
	fmt.Printf("# restart: client-observed %.1f ms, server recovery_ms %.0f\n", median(ls.restartMS), median(ls.recoveryMS))

	pm := func(v float64, unit string) metric { return metric{Value: v, Unit: unit} }
	out := map[string]metric{}
	for k, v := range counters {
		out[k] = v
	}
	both := func(name string, self bool) []float64 {
		return append(tr.perOp("job.sort", name, self), tr.perOp("job.cc", name, self)...)
	}
	lat := func(class int) []float64 {
		var xs []float64
		for _, s := range ls.jobs {
			if s.class == class {
				xs = append(xs, us(s.lat))
			}
		}
		return xs
	}
	execSort := median(tr.perOp("job.sort", "server.exec", false))
	execCC := median(tr.perOp("job.cc", "server.exec", false))
	out["server.decode_us"] = pm(median(both("server.decode", true)), "us")
	out["server.outside_exec_us"] = pm((median(lat(0))-execSort+median(lat(1))-execCC)/2, "us")
	lookups, resolves := both("rescache.lookup", true), both("rescache.resolve", true)
	for i := range lookups {
		lookups[i] += resolves[i]
	}
	out["rescache.fingerprint_us"] = pm(median(both("rescache.fingerprint", true)), "us")
	out["rescache.miss_us"] = pm(median(lookups), "us")
	out["report.encode_us"] = pm(median(both("report.encode", true)), "us")
	out["server.exec_sort64_us"] = pm(execSort, "us")
	out["server.exec_packedcc256_us"] = pm(execCC, "us")
	out["server.runbatch16_ms"] = pm(median(tr.perOp("batch", "server.runbatch", false))/1000, "ms")
	out["mcache.checkout_us"] = pm(median(tr.perSpan("job.sort", "mcache.checkout")), "us")
	out["core.build64_ms"] = pm(median(tr.perSpan("build", "core.build64"))/1000, "ms")
	out["core.build256_ms"] = pm(median(tr.perSpan("restart", "core.build256"))/1000, "ms")
	out["sorting.sortotn64_us"] = pm(median(tr.perSpan("job.sort", "sorting.sortotn")), "us")
	out["sorting.batch_lane_us"] = pm(median(tr.perSpan("batch", "sorting.batch"))/maxLanes, "us")
	out["sorting.batch_alloc_kb_per_lane"] = pm(float64(rp.laneAlloc)/float64(rp.lanes)/1024, "KiB")
	out["packed.components256_us"] = pm(median(tr.perSpan("job.cc", "packed.components")), "us")
	out["packed.incremental1024_us"] = pm(median(tr.perSpan("session", "packed.incremental")), "us")
	out["packed.engine_build_ms"] = pm(median(tr.perSpan("build", "packed.engine_build"))/1000, "ms")
	out["graph.incremental256_us"] = pm(median(tr.perSpan("restart", "graph.incremental")), "us")
	out["graph.components256_ms"] = pm(median(tr.perSpan("restart", "graph.components256"))/1000, "ms")
	out["journal.append_us"] = pm(median(tr.perSpan("session", "journal.append")), "us")
	out["journal.records_per_fsync"] = pm(ls.recordsPerFsync, "count")
	out["journal.open_replay_ms"] = pm(median(tr.perSpan("restart", "journal.open_replay"))/1000, "ms")
	out["journal.snapshot_bytes"] = pm(float64(rp.snapBytes), "bytes")
	out["server.recovery_ms"] = pm(median(ls.recoveryMS), "ms")
	out["workload.oracle_us"] = pm(median(tr.perSpan("restart", "workload.oracle")), "us")
	return out, nil
}

// checkReplay checks that replayed reports equal the served ones,
// matched by job id where there is one, else by position.
func checkReplay(served, replayed []*report.Report) error {
	if len(served) != len(replayed) {
		return fmt.Errorf("replay produced %d reports for %d served", len(replayed), len(served))
	}
	byID := make(map[string]*report.Report)
	for _, r := range replayed {
		if r == nil {
			return fmt.Errorf("replay produced no report")
		}
		if r.JobID != "" {
			byID[r.JobID] = r
		}
	}
	for i, s := range served {
		r := replayed[i]
		if s.JobID != "" {
			if r = byID[s.JobID]; r == nil {
				return fmt.Errorf("replay has no report for job %s", s.JobID)
			}
		}
		if err := checkSame("replayed operation vs served answer", s, r); err != nil {
			return err
		}
	}
	return nil
}

// replayResult is what one replayed restart in a fresh process reports.
type replayResult struct {
	US        float64 `json:"us"`
	SnapBytes int     `json:"snap_bytes"`
	Error     string  `json:"error,omitempty"`
}

// runReplayChild replays one restart in this fresh process, checks the
// replayed tail against the live answers, and writes its spans when
// traced.
func runReplayChild(spec string, traced bool, spansOut string) error {
	cj, err := loadCrashJournal(spec)
	if err != nil {
		return err
	}
	ck := &checker{}
	r := &replayer{tr: newTracer(traced), ck: ck}
	var reps []*report.Report
	d := r.tr.run("restart", func() { reps = r.restart(cj) })
	ck.fail(checkReplay(cj.ScalarTail, reps))
	res := replayResult{US: float64(d) / float64(time.Microsecond), SnapBytes: r.snapBytes}
	if errs := ck.first(1); len(errs) > 0 {
		res.Error = errs[0].Error()
	}
	if traced && spansOut != "" {
		if err := r.tr.write(spansOut); err != nil {
			return err
		}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	return nil
}

// replayInChild replays one restart in a fresh process and, when tr is
// on, merges the child's spans into tr.
func replayInChild(o options, spec string, tr *tracer, spansOut string) (float64, int, error) {
	trace := "0"
	if tr.on {
		trace = "1"
	}
	line, err := child("--workload", "recover", "--workdir", o.workdir, "--replay-spec", spec, "--trace", trace, "--spans-out", spansOut)
	if err != nil {
		return 0, 0, err
	}
	var res replayResult
	if err := json.Unmarshal(line, &res); err != nil {
		return 0, 0, err
	}
	if res.Error != "" {
		return 0, 0, fmt.Errorf("replayed restart: %s", res.Error)
	}
	if tr.on {
		spans, err := readSpans(spansOut)
		if err != nil {
			return 0, 0, err
		}
		tr.merge(spans)
	}
	return res.US, res.SnapBytes, nil
}
