package packed

import (
	"fmt"

	"repro/internal/algorithms/graph"
	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// Incremental is the packed counterpart of graph.Incremental: a
// graph.Labeling whose rounds replay the scalar restricted round term
// for term from the engine's fused tables — ccFixedA, the conditional
// hook broadcast, ccFixedB2C and ⌈log₂|S|⌉ pointer jumps per round,
// ⌈log₂|S|⌉+2 rounds per batch — so a healthy machine's scalar
// incremental run and this engine agree on every label and every
// completion bit-time, which is what the differential fuzz in this
// package pins.
//
// The host win is the dirty-word mask: S is kept as a packed bitmask
// plus the list of its non-zero word indices, and the candidate scan
// of each affected row touches only those words. A single-edge update
// in a small component costs a few words of host work instead of the
// full N×N/64-word sweep of a recompute.
type Incremental struct {
	graph.Labeling
}

// NewIncremental packs g, runs the initial full labeling on e and
// returns the engine ready for update batches plus the completion
// time of the initial labeling.
func NewIncremental(e *Engine, g *workload.Graph, rel vlsi.Time) (*Incremental, vlsi.Time) {
	if g.N != e.K {
		panic(fmt.Sprintf("packed: %d vertices on a (%d×%d) engine", g.N, e.K, e.K))
	}
	inc := e.newIncremental(PackGraph(g), make([]int64, e.K))
	return inc, inc.Full(rel)
}

// ResumeIncremental rebuilds an engine around previously committed
// state without recomputing: g and labels come from a durable
// snapshot and are adopted as-is at zero simulated cost. The packed
// twin of graph.ResumeIncremental.
func ResumeIncremental(e *Engine, g *workload.Graph, labels []int64) *Incremental {
	if g.N != e.K {
		panic(fmt.Sprintf("packed: %d vertices on a (%d×%d) engine", g.N, e.K, e.K))
	}
	return e.newIncremental(PackGraph(g), append([]int64(nil), labels...))
}

// newIncremental returns an engine over adj with committed labels d.
func (e *Engine) newIncremental(adj *bits.Matrix, d []int64) *Incremental {
	if adj.N != e.K {
		panic(fmt.Sprintf("packed: %d-vertex adjacency on a (%d×%d) engine", adj.N, e.K, e.K))
	}
	n := e.K
	w := &words{
		e: e, adj: adj,
		smask:  make([]uint64, bits.Words(n)),
		swords: make([]int, 0, bits.Words(n)),
		cand:   make([]int64, n),
		hook:   make([]int64, n),
		prev:   make([]int64, n),
	}
	return &Incremental{graph.NewLabeling(d, e.Cfg.WordBits, w)}
}

// words is the packed graph.Backend: the adjacency as packed rows, the
// dirty-word mask of S, and per-round scratch.
type words struct {
	e      *Engine
	adj    *bits.Matrix
	smask  []uint64 // packed image of S
	swords []int    // non-zero word indices of smask
	cand   []int64  // per-S-row candidate scratch
	hook   []int64  // per-label scratch, reset only at S entries
	prev   []int64  // pointer-jump scratch, ditto
}

func (w *words) Edge(u, v int) bool { return w.adj.Get(u, v) }

func (w *words) SetEdge(u, v int, on bool) {
	w.adj.SetTo(u, v, on)
	w.adj.SetTo(v, u, on)
}

// Select rebuilds the dirty-word mask for a new S.
func (w *words) Select(l *graph.Labeling) {
	for i := range w.smask {
		w.smask[i] = 0
	}
	for _, v := range l.S {
		w.smask[v/bits.WordBits] |= 1 << (v % bits.WordBits)
	}
	w.swords = w.swords[:0]
	for i, m := range w.smask {
		if m != 0 {
			w.swords = append(w.swords, i)
		}
	}
}

// Round replays the scalar round over packed words: the fixed
// broadcast/reduce terms are charged whole (the scalar round issues
// them on the selected trees at identical duration) while the data
// step sweeps only dirty words.
func (w *words) Round(l *graph.Labeling, rel vlsi.Time) (vlsi.Time, bool) {
	e, work, sv := w.e, l.Work, l.S

	// (a1) D down every column, (a2) D along every row, (a3) local
	// candidate compare, (a4) MIN ascent per row — the candidate scan
	// restricted to the dirty words of each affected row.
	t := rel + e.ccFixedA
	anyHook := false
	for i, v := range sv {
		c := core.Null
		dv := work[v]
		bits.ForEachMasked(w.adj.Row(v), w.smask, w.swords, func(u int) {
			if du := work[u]; du != dv && (c == core.Null || du < c) {
				c = du
			}
		})
		w.cand[i] = c
		if c != core.Null {
			anyHook = true
		}
	}

	// (b1) stage C(v) at column D(v): a selective row broadcast that
	// only charges when some row actually floods (ParDo is a max, and
	// deselected rows return their release time unchanged).
	if anyHook {
		t += e.fRow.Broadcast
	}
	// (b2) MIN per affected column + (c) the resolution broadcast.
	t += e.ccFixedB2C
	for _, s := range sv {
		w.hook[s] = core.Null
	}
	for i, v := range sv {
		if w.cand[i] == core.Null {
			continue
		}
		s := work[v]
		if w.hook[s] == core.Null || w.cand[i] < w.hook[s] {
			w.hook[s] = w.cand[i]
		}
	}
	changed := l.ResolveHooks(w.hook)

	// (d) pointer jumping: per jump, a column broadcast plus the
	// slowest row gather from leaf prev[v].
	for j := 0; j < l.Jumps(); j++ {
		for _, v := range sv {
			w.prev[v] = work[v]
		}
		t += e.fCol.Broadcast
		var maxG vlsi.Time
		for _, v := range sv {
			if g := e.fRow.Gather[w.prev[v]]; g > maxG {
				maxG = g
			}
			work[v] = w.prev[w.prev[v]]
		}
		t += maxG
	}
	return t, changed
}
