// Package graph implements the paper's Section III graph algorithms
// on the orthogonal trees network: connected components of an
// undirected N-vertex graph (a mesh-of-trees implementation of the
// Hirschberg–Chandra–Sarwate CONNECT algorithm [12]) and a minimum
// spanning tree (Sollin/Borůvka on the weight matrix). Both run on an
// (N×N)-OTN holding the adjacency/weight matrix in the base, take
// Θ(log⁴ N) bit-times under the log-delay model, and are the problems
// for which Table III shows the OTN/OTC's A·T² beating every other
// network class.
package graph

import (
	"fmt"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/vlsi"
	"repro/internal/workload"
)

// RegAdj is the adjacency register LoadGraph fills (scalar bank plus
// packed bit-bank shadow) — exported so the packed adapter can read
// the machine-resident adjacency without re-deriving it from the
// workload.
const RegAdj = regAdj

// Registers used by the graph programs.
const (
	regAdj  core.Reg = "adj"  // adjacency bit A(v,u) at BP(v,u)
	regDcol core.Reg = "Dcol" // D(u) broadcast down column u
	regDrow core.Reg = "Drow" // D(v) broadcast along row v
	regCand core.Reg = "cand" // hooking candidate at BP(v,u)
	regT    core.Reg = "T"    // per-component candidate staging
	regW    core.Reg = "W"    // weight matrix W(v,u)
)

// LoadGraph stores the adjacency matrix of g into the base of m —
// into the scalar adj register and, through the same stuck-BP write
// guard, into its packed bit-bank shadow, so the packed execution
// mode (internal/packed) and the word-skipping scalar sweeps below
// always read exactly the Boolean image of what the scalar program
// reads.
func LoadGraph(m *core.Machine, g *workload.Graph) {
	if g.N != m.K {
		panic(fmt.Sprintf("graph: %d vertices on a (%d×%d)-OTN", g.N, m.K, m.K))
	}
	for v := 0; v < g.N; v++ {
		for u := 0; u < g.N; u++ {
			var a int64
			if g.Adj[v][u] {
				a = 1
			}
			m.Set(regAdj, v, u, a)
			m.SetBit(regAdj, v, u, g.Adj[v][u])
		}
	}
}

// ConnectedComponents labels the vertices of the graph resident in m
// (via LoadGraph): the returned slice maps every vertex to its
// component's representative. The completion time covers the whole
// OTN program.
//
// The algorithm is the CONNECT scheme the paper cites: iterate
//
//	(a) every vertex finds the minimum foreign component among its
//	    neighbours (two tree broadcasts + a MIN ascent per row);
//	(b) every component takes the minimum of its members' candidates
//	    (a selective row broadcast placing the candidate at column
//	    D(v), then a MIN ascent per column);
//	(c) supervertex roots hook to their candidates; the only possible
//	    cycles are mutual pairs, broken toward the smaller label;
//	(d) ⌈log N⌉ pointer-jumping steps collapse the hooking forest.
//
// Each iteration merges every non-isolated component with another, so
// ⌈log N⌉ iterations suffice; with Θ(log² N) per primitive and
// Θ(log N) jumps per iteration the total is Θ(log⁴ N). The run is a
// Labeling's full run: the restricted round over S = every vertex.
func ConnectedComponents(m *core.Machine, rel vlsi.Time) ([]int64, vlsi.Time) {
	l := NewLabeling(make([]int64, m.K), m.Cfg.WordBits, newScalar(m, nil))
	t := l.Full(rel)
	return l.d, t
}

// ComponentsRound exposes one hook-and-contract iteration over every
// vertex for step-decomposed execution (the recovery supervisor of
// internal/resilience re-runs the exact round ConnectedComponents
// uses, one checkpointable step per round). It returns the new
// labels, the completion time and whether anything moved.
func ComponentsRound(m *core.Machine, d []int64, rel vlsi.Time) ([]int64, vlsi.Time, bool) {
	b := newScalar(m, nil)
	l := NewLabeling(make([]int64, len(d)), m.Cfg.WordBits, b)
	l.seed(true)
	copy(l.Work, d)
	t, changed := b.Round(&l, rel)
	return l.Work, t, changed
}

// ComponentsMaxRounds is the iteration bound ConnectedComponents uses
// for an n-vertex graph.
func ComponentsMaxRounds(n int) int { return vlsi.Log2Ceil(n) + 2 }

// scalar is the machine Backend of a Labeling: the adjacency lives in
// the graph shadow g and in m's adj register (scalar bank and bit-bank
// shadow), and the round runs on the OTN's trees.
type scalar struct {
	m *core.Machine
	g *workload.Graph // nil when no update batch is ever folded in

	// Per-round scratch; a round reads only the entries of S.
	cOf, hook, prev []int64
}

func newScalar(m *core.Machine, g *workload.Graph) *scalar {
	n := m.K
	return &scalar{m: m, g: g, cOf: make([]int64, n), hook: make([]int64, n), prev: make([]int64, n)}
}

func (b *scalar) Edge(u, v int) bool { return b.g.Adj[u][v] }

func (b *scalar) SetEdge(u, v int, on bool) {
	var a int64
	if on {
		a = 1
	}
	b.g.Adj[u][v] = on
	b.g.Adj[v][u] = on
	b.m.Set(regAdj, u, v, a)
	b.m.Set(regAdj, v, u, a)
	b.m.SetBit(regAdj, u, v, on)
	b.m.SetBit(regAdj, v, u, on)
}

func (*scalar) Select(*Labeling) {}

// Round performs one hook-and-contract iteration with every tree
// operation restricted to the rows/columns of S: deselected vectors
// return the release time unchanged, and selective ascents on healthy
// trees cost the same uniform reduce as full ones, so the time
// accounting is the full round skeleton with |S|-bounded pointer
// jumping. Stale register contents outside S are masked by the row
// selector in phase (b2); phase (a3) guards candidates to S columns
// because S is edge-closed only in the graph, not in the leftover
// register state. With S = every vertex no guard fires.
func (b *scalar) Round(l *Labeling, rel vlsi.Time) (vlsi.Time, bool) {
	m, n := b.m, b.m.K
	inS, sv, work := l.inS, l.S, l.Work
	cOf, hook, prev := b.cOf, b.hook, b.prev
	var selS core.Sel // nil selects every row, as S = every vertex does
	if len(sv) < n {
		selS = func(k int) bool { return inS[k] }
	}

	// (a1) working label down every S column: BP(v,u).Dcol = D(u).
	t := m.ParDo(false, rel, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		if !inS[vec.Index] {
			return r
		}
		m.SetColRoot(vec.Index, work[vec.Index])
		return m.RootToLeaf(vec, nil, regDcol, r)
	})
	// (a2) working label along every S row: BP(v,u).Drow = D(v).
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		if !inS[vec.Index] {
			return r
		}
		m.SetRowRoot(vec.Index, work[vec.Index])
		return m.RootToLeaf(vec, nil, regDrow, r)
	})
	// (a3) candidate at BP(v,u) on the S rows: D(u) if the edge exists
	// and joins different components. On a healthy machine whose
	// adjacency has a packed shadow (LoadGraph), the sweep word-skips
	// the zero spans of each row: the bit bank is the exact Boolean
	// image of adj and the sparse Gnp rows are mostly zero, so the host
	// cost drops from three register reads per cell to one write plus
	// a per-edge probe. The values written are identical either way
	// (adj holds only 0/1), and the charged time below is a
	// data-independent local step.
	if !m.Faulty() && m.HasBitBank(regAdj) {
		adj := m.BitBank(regAdj)
		for _, v := range sv {
			for u := 0; u < n; u++ {
				m.Set(regCand, v, u, core.Null)
			}
			bits.ForEach(adj.Row(v), func(u int) {
				if !inS[u] {
					return
				}
				if c := m.Get(regDcol, v, u); c != m.Get(regDrow, v, u) {
					m.Set(regCand, v, u, c)
				}
			})
		}
	} else {
		for _, v := range sv {
			for u := 0; u < n; u++ {
				c := core.Null
				if inS[u] && m.Get(regAdj, v, u) == 1 && m.Get(regDcol, v, u) != m.Get(regDrow, v, u) {
					c = m.Get(regDcol, v, u)
				}
				m.Set(regCand, v, u, c)
			}
		}
	}
	t = m.Local(t, m.CostCompare())
	// (a4) C(v) = min candidate along each S row.
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		if !inS[vec.Index] {
			return r
		}
		done := m.MinLeafToRoot(vec, nil, regCand, r)
		cOf[vec.Index] = m.RowRoot(vec.Index)
		return done
	})

	// (b1) stage C(v) at BP(v, D(v)) on the S rows — a selective row
	// broadcast (the row root already holds C(v)).
	for _, v := range sv {
		for u := 0; u < n; u++ {
			m.Set(regT, v, u, core.Null)
		}
	}
	t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		v := vec.Index
		if !inS[v] || cOf[v] == core.Null {
			return r
		}
		m.SetRowRoot(v, cOf[v])
		return m.RootToLeaf(vec, core.One(int(work[v])), regT, r)
	})
	// (b2) T(s) = min over the S rows of column s; the selector masks
	// stale T cells left in non-S rows by earlier runs.
	t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		if !inS[vec.Index] {
			return r
		}
		done := m.MinLeafToRoot(vec, selS, regT, r)
		hook[vec.Index] = m.ColRoot(vec.Index)
		return done
	})

	// (c) resolve hooks at the S roots. The E(E(s)) lookup is one more
	// column broadcast + row pick on chip; its values are already at
	// the roots, so charge one LEAFTOLEAF round.
	changed := l.ResolveHooks(hook)
	t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
		if !inS[vec.Index] {
			return r
		}
		return m.RootToLeaf(vec, core.One(vec.Index%m.K), regT, r)
	})

	// (d) pointer jumping: D(v) := D(D(v)), ⌈log₂|S|⌉ times. Each jump
	// broadcasts D down the S columns and lets row v pick column
	// D(v)'s value.
	for j := 0; j < l.Jumps(); j++ {
		copy(prev, work)
		t = m.ParDo(false, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
			if !inS[vec.Index] {
				return r
			}
			m.SetColRoot(vec.Index, prev[vec.Index])
			return m.RootToLeaf(vec, nil, regDcol, r)
		})
		t = m.ParDo(true, t, func(vec core.Vector, r vlsi.Time) vlsi.Time {
			v := vec.Index
			if !inS[v] {
				return r
			}
			done := m.LeafToRoot(vec, core.One(int(prev[v])), regDcol, r)
			work[v] = m.RowRoot(v)
			return done
		})
	}
	return t, changed
}

// RefComponents is the union-find reference labelling; labels are the
// minimum vertex of each component.
func RefComponents(g *workload.Graph) []int64 {
	parent := make([]int, g.N)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < g.N; v++ {
		for u := v + 1; u < g.N; u++ {
			if g.Adj[v][u] {
				a, b := find(v), find(u)
				if a != b {
					if a < b {
						parent[b] = a
					} else {
						parent[a] = b
					}
				}
			}
		}
	}
	out := make([]int64, g.N)
	min := make(map[int]int64, g.N)
	for v := 0; v < g.N; v++ {
		r := find(v)
		if cur, ok := min[r]; !ok || int64(v) < cur {
			min[r] = int64(v)
		}
	}
	for v := 0; v < g.N; v++ {
		out[v] = min[find(v)]
	}
	return out
}

// SamePartition reports whether two labelings induce the same
// partition of 0..n-1.
func SamePartition(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int64]int64{}
	rev := map[int64]int64{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if x, ok := rev[b[i]]; ok && x != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}
