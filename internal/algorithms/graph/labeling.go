package graph

import (
	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// BatchStats summarises the last update batch a Labeling absorbed.
type BatchStats struct {
	Updates  int // updates in the batch, duplicates and no-ops included
	Changed  int // edges whose presence actually changed net of the batch
	Affected int // vertices in the restricted recompute set S
	Rounds   int // restricted CONNECT rounds executed
}

// Backend is one engine's half of a Labeling: the adjacency update
// batches fold into, and the CONNECT round over the recompute set S.
// The scalar engine runs the round on the machine's trees; the packed
// engine replays it from fused duration tables over packed words.
type Backend interface {
	// Edge reports whether the undirected edge {u,v} is present.
	Edge(u, v int) bool
	// SetEdge writes the edge {u,v} into both triangle halves.
	SetEdge(u, v int, on bool)
	// Select is told each time l.S is chosen, before the first round
	// over it.
	Select(l *Labeling)
	// Round runs one hook-and-contract iteration over l.S, updating
	// l.Work in place. It returns the completion time and whether any
	// root hooked.
	Round(l *Labeling, rel vlsi.Time) (vlsi.Time, bool)
}

// Labeling is the engine-independent host half of CONNECT labeling:
// committed and working labels, the recompute set S, the round
// counters and the batch lifecycle. A full labeling is the run with S
// = every vertex, each its own supervertex: the round's S guards then
// never fire, and |S| = N gives the ⌈log₂ N⌉ jumps and ⌈log₂ N⌉+2
// round bound of the unrestricted algorithm.
//
// Under a stream of edge updates, insertions that merge components
// and deletions both resolve through the same mechanism: a run
// restricted to the set S of vertices whose pre-batch component was
// touched. Because CONNECT's labels are canonical (every component
// converges to its minimum vertex — the minimum root always wins the
// mutual-pair hook), relabeling only S reproduces, bit for bit, what
// a full recompute would assign: untouched components already hold
// their canonical labels, and the restricted run assigns canonical
// labels inside S.
//
// The batch lifecycle is step-decomposed for the recovery supervisor:
// ApplyUpdates, then RoundStep until SkipRound, then Commit.
// ApplyBatch bundles the three for plain runs.
type Labeling struct {
	// Work holds the working labels of the pending run; entries
	// outside S mirror the committed labels.
	Work []int64
	// S lists the vertices of the recompute set, ascending.
	S []int

	be         Backend
	fold       vlsi.Time // one word compare: the charge of folding a batch into the base
	d          []int64   // committed labels, always canonical
	inS        []bool
	hit        []bool // labels ApplyUpdates marks affected; all false between batches
	roundsDone int
	maxRounds  int
	converged  bool
	pending    bool
	last       BatchStats
}

// NewLabeling returns a labeling over be with committed labels d
// (adopted, not copied) and nothing pending. wordBits is the machine
// word width, which prices folding an update batch into the base.
func NewLabeling(d []int64, wordBits int, be Backend) Labeling {
	return Labeling{
		Work:      append([]int64(nil), d...),
		S:         make([]int, 0, len(d)),
		be:        be,
		fold:      vlsi.Time(wordBits),
		d:         d,
		inS:       make([]bool, len(d)),
		converged: true,
	}
}

// Full labels every vertex from scratch — the restricted run over S =
// every vertex — and commits the result. It returns the completion
// time; the batch statistics stay those of the last update batch.
func (l *Labeling) Full(rel vlsi.Time) vlsi.Time {
	l.seed(true)
	t := l.rounds(rel)
	l.commit()
	return t
}

// Labels returns a copy of the committed labels.
func (l *Labeling) Labels() []int64 { return append([]int64(nil), l.d...) }

// Stats returns the statistics of the last batch.
func (l *Labeling) Stats() BatchStats { return l.last }

// ApplyUpdates folds a batch into the backend's adjacency, derives the
// affected set S from the net edge changes, and seeds the restricted
// recompute: every vertex of S restarts as its own supervertex.
// Batches that end up changing nothing (duplicate toggles,
// intra-component insertions) leave S empty and converge immediately.
// The charged time is the one local word-step of folding the updates
// into the base.
func (l *Labeling) ApplyUpdates(batch []workload.EdgeUpdate, rel vlsi.Time) vlsi.Time {
	n := len(l.d)
	orig := make(map[int]bool, len(batch)) // u*n+v (u<v) → pre-batch presence
	for _, up := range batch {
		u, v := up.U, up.V
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := u*n + v
		if _, ok := orig[key]; !ok {
			orig[key] = l.be.Edge(u, v)
		}
		l.be.SetEdge(u, v, up.Add)
	}

	// Net changes against the pre-batch graph decide which component
	// labels must be recomputed: every net deletion taints both
	// endpoint components; a net insertion only matters when it
	// bridges two components (intra-component edges change no labels).
	if l.hit == nil {
		l.hit = make([]bool, n)
	}
	changed := 0
	for key, was := range orig {
		u, v := key/n, key%n
		now := l.be.Edge(u, v)
		if now == was {
			continue
		}
		changed++
		if !now || l.d[u] != l.d[v] {
			l.hit[l.d[u]] = true
			l.hit[l.d[v]] = true
		}
	}

	// S is the union of the affected components — edge-closed, because
	// components are maximal and any new cross edge put both endpoint
	// labels into the affected set. Every hit label is the committed
	// label of a vertex of S, so clearing over S clears them all.
	l.seed(false)
	for _, v := range l.S {
		l.hit[l.d[v]] = false
	}
	l.last = BatchStats{Updates: len(batch), Changed: changed, Affected: len(l.S)}
	return rel + l.fold
}

// seed starts a run over S — every vertex when all is set, otherwise
// the vertices whose committed label is hit: each vertex of S restarts
// as its own supervertex, the rest keep their committed labels.
func (l *Labeling) seed(all bool) {
	l.S = l.S[:0]
	for v, dv := range l.d {
		l.inS[v] = all || l.hit[dv]
		if l.inS[v] {
			l.S = append(l.S, v)
			l.Work[v] = int64(v)
		} else {
			l.Work[v] = dv
		}
	}
	l.roundsDone = 0
	l.maxRounds = 0
	if len(l.S) > 0 {
		l.maxRounds = vlsi.Log2Ceil(len(l.S)) + 2
	}
	l.converged = len(l.S) == 0
	l.pending = true
	l.be.Select(l)
}

// SkipRound reports whether round index i of the pending run has
// nothing to do — the supervisor uses it as the per-step skip gate.
func (l *Labeling) SkipRound(i int) bool {
	return l.converged || i >= l.maxRounds
}

// RoundStep runs one CONNECT round over S. It is a no-op at zero cost
// once converged or past the round bound.
func (l *Labeling) RoundStep(rel vlsi.Time) vlsi.Time {
	if l.converged || l.roundsDone >= l.maxRounds {
		return rel
	}
	t, changed := l.be.Round(l, rel)
	l.roundsDone++
	if !changed {
		l.converged = true
	}
	return t
}

// Commit folds the working labels of S into the committed labels and
// returns a copy of the result. Idempotent between batches.
func (l *Labeling) Commit() []int64 {
	if l.pending {
		l.last.Rounds = l.roundsDone
		l.commit()
	}
	return l.Labels()
}

func (l *Labeling) commit() {
	if l.pending {
		for _, v := range l.S {
			l.d[v] = l.Work[v]
		}
		l.pending = false
	}
}

// rounds runs rounds until convergence or the round bound and returns
// the completion time.
func (l *Labeling) rounds(rel vlsi.Time) vlsi.Time {
	t := rel
	for i := 0; !l.SkipRound(i); i++ {
		t = l.RoundStep(t)
	}
	return t
}

// ApplyBatch applies one update batch to completion: apply, restricted
// rounds until convergence, commit. It returns the new labels and the
// completion time.
func (l *Labeling) ApplyBatch(batch []workload.EdgeUpdate, rel vlsi.Time) ([]int64, vlsi.Time) {
	t := l.rounds(l.ApplyUpdates(batch, rel))
	return l.Commit(), t
}

// ResolveHooks is phase (c) of a round: every root of S hooks to its
// candidate hook[root] (core.Null: none). Hooking to the minimum
// neighbouring component admits only 2-cycles (along any longer cycle
// the labels would descend forever); they break toward the smaller
// label, whose larger partner keeps its hook. Writing Work in place is
// safe: iteration s reads only Work[s] and the immutable hook array.
// It reports whether any root hooked.
func (l *Labeling) ResolveHooks(hook []int64) bool {
	changed := false
	for _, s := range l.S {
		if l.Work[s] != int64(s) {
			continue // not a root
		}
		e := hook[s]
		if e == core.Null {
			continue
		}
		if hook[e] == int64(s) && int64(s) < e {
			continue
		}
		l.Work[s] = e
		changed = true
	}
	return changed
}

// Jumps is the pointer-jumping depth of one round: ⌈log₂|S|⌉ steps
// collapse any hooking forest on S.
func (l *Labeling) Jumps() int { return vlsi.Log2Ceil(len(l.S)) }
