package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/report"
	"repro/internal/workload"
)

// The checks in this file do not trust the program: component counts
// come from a union-find written here, over the benchmark's own copy
// of each session graph, and cost invariants are stated from first
// principles (A·T² is area times time squared; SORT-OTN's cost at a
// fixed N depends on neither the input permutation nor the lane).

// edgeSet is the benchmark's shadow of one session graph: an edge list
// with an index, so random insertions and deletions are O(1).
type edgeSet struct {
	n    int
	list [][2]int32
	idx  map[uint32]int
}

func pairKey(u, v int) uint32 {
	if u > v {
		u, v = v, u
	}
	return uint32(u)<<16 | uint32(v)
}

// newEdgeSet copies the edges of g (the server's initial graph for a
// session seed, drawn by the shared input generator).
func newEdgeSet(g *workload.Graph) *edgeSet {
	s := &edgeSet{n: g.N, idx: make(map[uint32]int)}
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if g.Adj[u][v] {
				s.add(u, v)
			}
		}
	}
	return s
}

func (s *edgeSet) clone() *edgeSet {
	c := &edgeSet{n: s.n, list: append([][2]int32(nil), s.list...), idx: make(map[uint32]int, len(s.idx))}
	for k, v := range s.idx {
		c.idx[k] = v
	}
	return c
}

func (s *edgeSet) has(u, v int) bool { _, ok := s.idx[pairKey(u, v)]; return ok }

func (s *edgeSet) add(u, v int) {
	s.idx[pairKey(u, v)] = len(s.list)
	s.list = append(s.list, [2]int32{int32(u), int32(v)})
}

func (s *edgeSet) remove(u, v int) {
	k := pairKey(u, v)
	i := s.idx[k]
	last := s.list[len(s.list)-1]
	s.list[i] = last
	s.idx[pairKey(int(last[0]), int(last[1]))] = i
	s.list = s.list[:len(s.list)-1]
	delete(s.idx, k)
}

// apply folds one batch into the set, in order.
func (s *edgeSet) apply(batch []update) {
	for _, up := range batch {
		if up.Add && !s.has(up.U, up.V) {
			s.add(up.U, up.V)
		} else if !up.Add && s.has(up.U, up.V) {
			s.remove(up.U, up.V)
		}
	}
}

// components counts connected components by union-find with path
// halving, linking the larger root under the smaller.
func (s *edgeSet) components() int {
	parent := make([]int32, s.n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	count := s.n
	for _, e := range s.list {
		a, b := find(e[0]), find(e[1])
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		parent[b] = a
		count--
	}
	return count
}

// update is one explicit edge update, in the wire shape of
// POST /sessions/{id}/updates.
type update struct {
	U   int  `json:"u"`
	V   int  `json:"v"`
	Add bool `json:"add"`
}

// updateStream draws explicit update batches against its shadow set.
// It keeps a window of the churnEdges edges it inserted last: once the
// window is full, each update deletes the oldest of them, and the next
// inserts a fresh absent pair. A session graph is therefore its
// initial draw plus a bounded set of recent edges, so the work per
// batch does not drift over a run (a stream of unbounded random
// toggles random-walks the component structure and with it the cost of
// a batch, by ±20% between seconds of one run). Pairs within a batch
// are distinct.
type updateStream struct {
	rng    *rand.Rand
	set    *edgeSet
	recent [][2]int
}

// churnEdges bounds the stream's inserted edges in a session graph.
const churnEdges = 32

func newUpdateStream(seed uint64, g *workload.Graph) *updateStream {
	return &updateStream{rng: rand.New(rand.NewPCG(seed, 0x5eed)), set: newEdgeSet(g)}
}

func (st *updateStream) next(k int) []update {
	s := st.set
	batch := make([]update, 0, k)
	used := make(map[uint32]bool, k)
	for len(batch) < k {
		if len(st.recent) >= churnEdges && !used[pairKey(st.recent[0][0], st.recent[0][1])] {
			e := st.recent[0]
			st.recent = st.recent[1:]
			used[pairKey(e[0], e[1])] = true
			batch = append(batch, update{U: e[0], V: e[1], Add: false})
			s.remove(e[0], e[1])
			if len(batch) == k {
				break
			}
		}
		u, v := st.rng.IntN(s.n), st.rng.IntN(s.n)
		if u == v || s.has(u, v) || used[pairKey(u, v)] {
			continue
		}
		used[pairKey(u, v)] = true
		batch = append(batch, update{U: u, V: v, Add: true})
		s.add(u, v)
		st.recent = append(st.recent, [2]int{u, v})
	}
	return batch
}

// encodeUpdate packs an update of a graph of at most 2^15 vertices
// into 32 bits; a run keeps every batch it sent for the union-find
// check, and this keeps that record small beside the heap it measures.
func encodeUpdate(u update) uint32 {
	x := uint32(u.U)<<16 | uint32(u.V)<<1
	if u.Add {
		x |= 1
	}
	return x
}

func decodeUpdate(x uint32) update {
	return update{U: int(x >> 16), V: int(x >> 1 & 0x7FFF), Add: x&1 == 1}
}

// checkSessionStream replays a session's batches (k encoded updates
// each) over the initial graph and checks each reported component
// count against union-find: comps[i] answers batch i.
func checkSessionStream(initial *edgeSet, updates []uint32, k int, comps []int32) error {
	if len(updates) != k*len(comps) {
		return fmt.Errorf("%d updates in batches of %d but %d answers", len(updates), k, len(comps))
	}
	s := initial.clone()
	batch := make([]update, k)
	for i := range comps {
		for j := range batch {
			batch[j] = decodeUpdate(updates[i*k+j])
		}
		s.apply(batch)
		if want := s.components(); int(comps[i]) != want {
			return fmt.Errorf("batch %d: reported %d components, union-find counts %d", i+1, comps[i], want)
		}
	}
	return nil
}

// checkAT2 checks that a report's A·T² is its area times its time
// squared.
func checkAT2(r *report.Report) error {
	want := float64(r.Area) * float64(r.Time) * float64(r.Time)
	if math.Abs(r.AT2-want) > 1e-12*math.Abs(want) {
		return fmt.Errorf("job %s: at2 %g != area %d × time %d² = %g", r.JobID, r.AT2, r.Area, r.Time, want)
	}
	return nil
}

// sortCost pins SORT-OTN's simulated time and area at one N: the first
// solo run sets the reference, and every later run — any seed, solo or
// in a batch lane — must match it exactly.
type sortCost struct {
	time, area int64
	set        bool
}

func (c *sortCost) solo(r *report.Report) error {
	if !c.set {
		c.time, c.area, c.set = r.Time, r.Area, true
		return nil
	}
	return c.check(r, "solo")
}

func (c *sortCost) check(r *report.Report, how string) error {
	if !c.set {
		return fmt.Errorf("no solo SORT-OTN reference before a %s run", how)
	}
	if r.Time != c.time || r.Area != c.area {
		return fmt.Errorf("%s sort seed %d: time %d area %d, solo reference time %d area %d",
			how, r.Seed, r.Time, r.Area, c.time, c.area)
	}
	return nil
}

// checkSame checks that two reports describe the same simulation.
func checkSame(what string, a, b *report.Report) error {
	if !a.Same(b) {
		return fmt.Errorf("%s: %s", what, a.Diff(b))
	}
	return nil
}

// sessionState is the GET /sessions/{id} body.
type sessionState struct {
	SessionID  string `json:"session_id"`
	Clock      int64  `json:"clock_bit_times"`
	Batches    int    `json:"batches"`
	Components int    `json:"components"`
	Failed     string `json:"failed,omitempty"`
}

// checkRecovered compares a recovered session's state with what the
// live session held when the process stopped: the same clock and batch
// count, and the component count union-find gives for its graph.
func checkRecovered(got sessionState, clock int64, batches, comps int) error {
	if got.Failed != "" || got.Clock != clock || got.Batches != batches || got.Components != comps {
		return fmt.Errorf("recovered session %s: clock %d batches %d components %d failed %q; want clock %d batches %d components %d",
			got.SessionID, got.Clock, got.Batches, got.Components, got.Failed, clock, batches, comps)
	}
	return nil
}
