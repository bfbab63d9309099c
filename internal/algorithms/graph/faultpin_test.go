package graph_test

import (
	"fmt"
	"testing"

	"repro/internal/algorithms/graph"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/resilience"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// faultPin is one pinned degraded run: the exact completion bit-time
// and the health counters a dead edge produces. Faulty machines are
// where a full CONNECT round and a restricted round over every vertex
// could part: the selective primitives' reroute and retry accounting
// depends on which trees and leaves a round selects, so these values
// pin the full labeling bit for bit there.
type faultPin struct {
	n        int
	row      bool
	tree     int
	node     int
	done     vlsi.Time
	reroutes int
	retries  int
	added    vlsi.Time // Health.AddedLatency
}

// The sites are the dead edges faults_test.go already exercises, kept
// at every N ∈ {16, 32, 64} whose trees contain them.
var faultPins = []faultPin{
	{16, true, 0, 2, 2164, 27, 0, 3024},
	{16, true, 0, 3, 1318, 17, 0, 2085},
	{16, true, 5, 7, 1270, 9, 0, 1017},
	{16, true, 13, 29, 1138, 3, 0, 225},
	{16, false, 9, 17, 1663, 10, 0, 750},
	{16, true, 4, 2, 2173, 28, 0, 3135},
	{32, true, 0, 2, 3369, 45, 0, 7916},
	{32, true, 0, 3, 2071, 33, 0, 6501},
	{32, true, 5, 7, 1924, 18, 0, 2841},
	{32, true, 13, 29, 1604, 4, 0, 400},
	{32, false, 9, 17, 2674, 24, 0, 2400},
	{32, true, 4, 2, 3369, 45, 0, 7916},
	{64, true, 0, 2, 5084, 78, 0, 24050},
	{64, true, 0, 3, 3238, 66, 0, 22347},
	{64, true, 5, 7, 2821, 33, 0, 7971},
	{64, true, 13, 29, 2294, 8, 0, 1060},
	{64, true, 31, 64, 2436, 2, 0, 446},
	{64, true, 47, 100, 2408, 2, 0, 418},
	{64, true, 63, 127, 2659, 3, 0, 669},
	{64, false, 9, 17, 4118, 56, 0, 7420},
	{64, true, 4, 2, 5110, 80, 0, 24375},
}

func pinMachine(t *testing.T, n int) *core.Machine {
	t.Helper()
	m, err := core.NewDefault(n, n*n)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func pinGraph(n int) *workload.Graph {
	return workload.NewRNG(uint64(n)).ComponentsGraph(n, n/8)
}

// TestComponentsFaultyExactTimes pins ConnectedComponents' end time and
// health counters on machines with one dead edge.
func TestComponentsFaultyExactTimes(t *testing.T) {
	for _, p := range faultPins {
		t.Run(fmt.Sprintf("n=%d/row=%v/%d.%d", p.n, p.row, p.tree, p.node), func(t *testing.T) {
			g := pinGraph(p.n)
			m := pinMachine(t, p.n)
			if err := m.InjectFaults(fault.New(7).KillEdge(p.row, p.tree, p.node)); err != nil {
				t.Fatal(err)
			}
			graph.LoadGraph(m, g)
			got, done := graph.ConnectedComponents(m, 0)
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			if !graph.SamePartition(got, graph.RefComponents(g)) {
				t.Fatal("wrong partition")
			}
			h := m.Health()
			if done != p.done || h.Reroutes != p.reroutes || h.Retries != p.retries || h.AddedLatency() != p.added {
				t.Errorf("done=%d reroutes=%d retries=%d added=%d, pinned %d/%d/%d/%d",
					done, h.Reroutes, h.Retries, h.AddedLatency(), p.done, p.reroutes, p.retries, p.added)
			}
		})
	}
}

// TestSupervisedComponentsExactTime pins one supervised
// ComponentsProgram run on a dead-edge machine whose second edge
// arrives mid-run, forcing a rollback and replay of the round it
// strikes.
func TestSupervisedComponentsExactTime(t *testing.T) {
	const n = 32
	g := pinGraph(n)
	m := pinMachine(t, n)
	if err := m.InjectFaults(fault.New(3).KillEdge(false, 9, 17)); err != nil {
		t.Fatal(err)
	}
	prog, out, err := resilience.ComponentsProgram(m, g)
	if err != nil {
		t.Fatal(err)
	}
	sched := fault.NewSchedule(2).Add(1500, fault.Site{Row: true, Tree: 13, Node: 29})
	done, err := resilience.Run(m, sched, prog, 0, resilience.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !graph.SamePartition(out(), graph.RefComponents(g)) {
		t.Fatal("wrong partition")
	}
	h := m.Health()
	if done != 5138 || h.Reroutes != 40 || h.Retries != 0 || h.Arrivals != 1 || h.Rollbacks != 1 {
		t.Errorf("done=%d reroutes=%d retries=%d arrivals=%d rollbacks=%d, pinned 5138/40/0/1/1",
			done, h.Reroutes, h.Retries, h.Arrivals, h.Rollbacks)
	}
}
