package graph

import (
	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Incremental maintains component labels of a machine-resident graph
// under streamed edge update batches: a Labeling whose rounds run on
// the machine's trees (see Labeling for why relabeling only the
// affected set S is exact).
//
// The cost model exploits the machine's selective primitives: a
// deselected tree returns the release time unchanged, so a round
// restricted to S charges exactly the broadcast/reduce terms of a full
// round but iterates only ⌈log₂|S|⌉ pointer jumps and ⌈log₂|S|⌉+2
// rounds — an update touching a small region costs O(polylog |S|)
// primitives instead of O(polylog N) full sweeps repeated over the
// whole graph.
type Incremental struct {
	Labeling
	m *core.Machine
	g *workload.Graph // private shadow of the machine-resident graph
}

// NewIncremental loads g into m, runs the initial full labeling and
// returns the engine ready for update batches, plus the completion
// time of the initial labeling.
func NewIncremental(m *core.Machine, g *workload.Graph, rel vlsi.Time) (*Incremental, vlsi.Time) {
	inc := newIncremental(m, g, make([]int64, g.N))
	return inc, inc.Full(rel)
}

// ResumeIncremental rebuilds an engine around previously committed
// state: g and labels come from a durable snapshot, the graph is
// loaded into m, and the labels are adopted as-is instead of being
// recomputed. No simulated time is charged — the labels were already
// paid for by the run that produced the snapshot. The caller owns the
// claim that labels are the canonical labeling of g (recovery asserts
// it against the union-find oracle).
func ResumeIncremental(m *core.Machine, g *workload.Graph, labels []int64) *Incremental {
	return newIncremental(m, g, append([]int64(nil), labels...))
}

func newIncremental(m *core.Machine, g *workload.Graph, d []int64) *Incremental {
	gc := g.Clone()
	LoadGraph(m, gc)
	return &Incremental{Labeling: NewLabeling(d, m.Cfg.WordBits, newScalar(m, gc)), m: m, g: gc}
}

// Machine returns the underlying machine.
func (inc *Incremental) Machine() *core.Machine { return inc.m }

// Graph returns the engine's current graph shadow (shared, read-only).
func (inc *Incremental) Graph() *workload.Graph { return inc.g }

// incSnapshot captures everything a rollback needs to replay a batch
// deterministically: the machine registers are the supervisor's
// Snapshot concern; this covers the host-side graph shadow and label
// state.
type incSnapshot struct {
	adj [][]bool
	l   Labeling
}

// HostSnapshot returns an opaque deep copy of the engine's host state.
func (inc *Incremental) HostSnapshot() any {
	s := &incSnapshot{adj: make([][]bool, len(inc.g.Adj)), l: inc.clone()}
	for i, row := range inc.g.Adj {
		s.adj[i] = append([]bool(nil), row...)
	}
	return s
}

// HostRestore rewinds the engine to a HostSnapshot. The snapshot stays
// valid for further restores.
func (inc *Incremental) HostRestore(v any) {
	s := v.(*incSnapshot)
	for i, row := range s.adj {
		copy(inc.g.Adj[i], row)
	}
	inc.Labeling = s.l.clone()
}

// clone deep-copies the labeling's state; the backend is shared.
func (l *Labeling) clone() Labeling {
	c := *l
	c.Work = append([]int64(nil), l.Work...)
	c.S = append([]int(nil), l.S...)
	c.d = append([]int64(nil), l.d...)
	c.inS = append([]bool(nil), l.inS...)
	return c
}
