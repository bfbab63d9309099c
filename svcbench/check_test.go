package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/workload"
)

// Each check is fed a right answer, which must pass, and a wrong one,
// which must fail.

func smallGraph() *workload.Graph {
	g := workload.NewGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	return g // {0,1,2} {3,4} {5}
}

func TestUnionFindCountsComponents(t *testing.T) {
	s := newEdgeSet(smallGraph())
	if got := s.components(); got != 3 {
		t.Fatalf("components = %d, want 3", got)
	}
	s.apply([]update{{U: 2, V: 3, Add: true}, {U: 0, V: 1, Add: false}})
	if got := s.components(); got != 3 { // {0} {1,2,3,4} {5}
		t.Fatalf("components after batch = %d, want 3", got)
	}
	s.apply([]update{{U: 5, V: 0, Add: true}})
	if got := s.components(); got != 2 {
		t.Fatalf("components after second batch = %d, want 2", got)
	}
}

func TestSessionStreamCheck(t *testing.T) {
	g := workload.NewRNG(9).Gnp(64, 2.0/64)
	initial := newEdgeSet(g)
	st := newUpdateStream(3, g)
	var updates []uint32
	var comps []int32
	for i := 0; i < 20; i++ {
		for _, u := range st.next(8) {
			if decodeUpdate(encodeUpdate(u)) != u {
				t.Fatalf("update %+v does not survive encoding", u)
			}
			updates = append(updates, encodeUpdate(u))
		}
		comps = append(comps, int32(st.set.components()))
	}
	if err := checkSessionStream(initial, updates, 8, comps); err != nil {
		t.Fatalf("right answers rejected: %v", err)
	}
	comps[13]++
	if err := checkSessionStream(initial, updates, 8, comps); err == nil || !strings.Contains(err.Error(), "batch 14") {
		t.Fatalf("wrong component count accepted: %v", err)
	}
	if err := checkSessionStream(initial, updates, 8, comps[:5]); err == nil {
		t.Fatal("missing answers accepted")
	}
}

func TestUpdateStreamIsDeterministicAndBounded(t *testing.T) {
	g := workload.NewRNG(4).Gnp(256, 2.0/256)
	a, b := newUpdateStream(5, g), newUpdateStream(5, g)
	edges0 := len(a.set.list)
	initial := newEdgeSet(g)
	for i := 0; i < 500; i++ {
		x, y := a.next(8), b.next(8)
		seen := map[uint32]bool{}
		for k := range x {
			if x[k] != y[k] {
				t.Fatalf("batch %d differs between two streams of one seed", i)
			}
			if seen[pairKey(x[k].U, x[k].V)] || x[k].U == x[k].V {
				t.Fatalf("batch %d repeats a pair or has a self-loop: %v", i, x)
			}
			seen[pairKey(x[k].U, x[k].V)] = true
		}
	}
	if n := len(a.set.list); n != edges0+churnEdges {
		t.Fatalf("edge count went from %d to %d, want the initial edges plus %d", edges0, n, churnEdges)
	}
	for _, e := range initial.list {
		if !a.set.has(int(e[0]), int(e[1])) {
			t.Fatalf("initial edge %v was deleted", e)
		}
	}
}

func TestAT2Check(t *testing.T) {
	r := &report.Report{Time: 1234, Area: 56789, AT2: 56789.0 * 1234 * 1234}
	if err := checkAT2(r); err != nil {
		t.Fatalf("right A·T² rejected: %v", err)
	}
	r.AT2 *= 1.001
	if err := checkAT2(r); err == nil {
		t.Fatal("wrong A·T² accepted")
	}
}

func TestSortCostCheck(t *testing.T) {
	var c sortCost
	if err := c.check(&report.Report{Time: 5, Area: 7}, "lane"); err == nil {
		t.Fatal("a lane run was checked without a solo reference")
	}
	if err := c.solo(&report.Report{Seed: 1, Time: 5, Area: 7}); err != nil {
		t.Fatal(err)
	}
	if err := c.solo(&report.Report{Seed: 2, Time: 5, Area: 7}); err != nil {
		t.Fatalf("same cost on another seed rejected: %v", err)
	}
	if err := c.solo(&report.Report{Seed: 3, Time: 6, Area: 7}); err == nil {
		t.Fatal("a seed-dependent sort time was accepted")
	}
	if err := c.check(&report.Report{Seed: 4, Time: 5, Area: 8}, "lane"); err == nil {
		t.Fatal("a lane run with another area was accepted")
	}
}

func TestTwinCheck(t *testing.T) {
	scalar := &report.Report{Alg: "cc", N: 256, Seed: 3, Time: 900, Area: 100, Components: 40, SessionID: "s-2"}
	twin := *scalar
	twin.SessionID = "s-3"
	if err := checkSame("twins", scalar, &twin); err != nil {
		t.Fatalf("twins differing only in session id rejected: %v", err)
	}
	twin.Components = 41
	if err := checkSame("twins", scalar, &twin); err == nil {
		t.Fatal("twins with different component counts accepted")
	}
}

func TestRecoveredStateCheck(t *testing.T) {
	st := sessionState{SessionID: "s-1", Clock: 777, Batches: 95, Components: 12}
	if err := checkRecovered(st, 777, 95, 12); err != nil {
		t.Fatalf("right state rejected: %v", err)
	}
	for _, bad := range []sessionState{
		{SessionID: "s-1", Clock: 777, Batches: 95, Components: 13},
		{SessionID: "s-1", Clock: 778, Batches: 95, Components: 12},
		{SessionID: "s-1", Clock: 777, Batches: 94, Components: 12},
		{SessionID: "s-1", Clock: 777, Batches: 95, Components: 12, Failed: "boom"},
	} {
		if err := checkRecovered(bad, 777, 95, 12); err == nil {
			t.Fatalf("wrong recovered state accepted: %+v", bad)
		}
	}
}

func TestReplayCheck(t *testing.T) {
	a := &report.Report{JobID: "a", Alg: "sort", N: 64, Seed: 1, Time: 10, Area: 20}
	b := &report.Report{JobID: "b", Alg: "sort", N: 64, Seed: 2, Time: 10, Area: 20}
	if err := checkReplay([]*report.Report{a, b}, []*report.Report{b, a}); err != nil {
		t.Fatalf("replay in another order rejected: %v", err)
	}
	wrong := *b
	wrong.Time = 11
	if err := checkReplay([]*report.Report{a, b}, []*report.Report{a, &wrong}); err == nil {
		t.Fatal("a replay with another time accepted")
	}
	if err := checkReplay([]*report.Report{a, b}, []*report.Report{a}); err == nil {
		t.Fatal("a replay missing a report accepted")
	}
	if err := checkReplay([]*report.Report{a}, []*report.Report{nil}); err == nil {
		t.Fatal("an empty replay accepted")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps span 1
		{ID: 3, Parent: 2, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := []time.Duration{60, 20, 20, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("self times %v, want %v", self, want)
		}
	}
}
