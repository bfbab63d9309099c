package core_test

import (
	"runtime"
	"testing"

	"repro/internal/algorithms/graph"
	"repro/internal/algorithms/sorting"
	"repro/internal/core"
	"repro/internal/tree"
	"repro/internal/workload"
)

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSessionPlanMemoryBounded: a resident session machine never
// Resets, so route-plan recording sees its whole batch stream as one
// run. The recording bound must keep that from growing the heap batch
// by batch: a scalar n=256 session fed 200 batches of 8 updates holds
// within 10% of its heap after 20 batches.
func TestSessionPlanMemoryBounded(t *testing.T) {
	const n = 256
	m, err := core.NewDefault(n, n*n)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewRNG(1).Gnp(n, 2.0/float64(n))
	inc, at := graph.NewIncremental(m, g, 0)
	stream := g.Clone()
	rng := workload.NewRNG(2)
	var h20 uint64
	for b := 1; b <= 200; b++ {
		_, at = inc.ApplyBatch(rng.UpdateBatch(stream, 8), at)
		if b == 20 {
			h20 = heapAlloc()
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if h200 := heapAlloc(); float64(h200) > 1.1*float64(h20) {
		t.Fatalf("session heap grew from %d MiB after 20 batches to %d MiB after 200", h20>>20, h200>>20)
	}
}

// privatePlans detaches m's trees (and the batches later built on
// them) from the shared plan cache, so each records its own plan
// instead of adopting one another test published.
func privatePlans(m *core.Machine) {
	for i := 0; i < m.K; i++ {
		m.Router(core.Row(i)).(*tree.Tree).SetPlanCache(nil)
		m.Router(core.Col(i)).(*tree.Tree).SetPlanCache(nil)
	}
}

// planRouter is the plan introspection tree.Tree and tree.Batch share.
type planRouter interface {
	HasRoutePlan() bool
	RoutePlanTruncated() bool
}

// checkWhole requires every router's plan, frozen by the Reset that
// ended the run, to cover the run's whole stream.
func checkWhole(t *testing.T, what string, k int, router func(core.Vector) planRouter) {
	t.Helper()
	for i := 0; i < k; i++ {
		for _, v := range []core.Vector{core.Row(i), core.Col(i)} {
			r := router(v)
			if !r.HasRoutePlan() || r.RoutePlanTruncated() {
				t.Fatalf("%s: %v plan recorded=%v truncated=%v, want a whole plan",
					what, v, r.HasRoutePlan(), r.RoutePlanTruncated())
			}
		}
	}
}

// TestRunPlansFreezeWhole: the recording bound sits above the plans of
// complete runs — a SORT-OTN n=64 job, a scalar components n=256 job
// and a 16-lane batched sort all freeze whole at the Reset that ends
// them.
func TestRunPlansFreezeWhole(t *testing.T) {
	onMachine := func(m *core.Machine) func(core.Vector) planRouter {
		return func(v core.Vector) planRouter { return m.Router(v).(*tree.Tree) }
	}

	sm, err := core.NewDefault(64, 64*64)
	if err != nil {
		t.Fatal(err)
	}
	privatePlans(sm)
	sorting.SortOTN(sm, workload.NewRNG(1).Perm(64), 0)
	sm.Reset()
	checkWhole(t, "sort n=64", 64, onMachine(sm))

	cm, err := core.NewDefault(256, 256*256)
	if err != nil {
		t.Fatal(err)
	}
	privatePlans(cm)
	graph.LoadGraph(cm, workload.NewRNG(3).Gnp(256, 2.0/256))
	graph.ConnectedComponents(cm, 0)
	cm.Reset()
	checkWhole(t, "components n=256", 256, onMachine(cm))

	bm, err := core.NewDefault(64, 64*64)
	if err != nil {
		t.Fatal(err)
	}
	privatePlans(bm)
	bb, err := core.NewBatch(bm, 16)
	if err != nil {
		t.Fatal(err)
	}
	problems := make([][]int64, 16)
	for p := range problems {
		problems[p] = workload.NewRNG(uint64(10 + p)).Perm(64)
	}
	sorting.SortOTNBatch(bb, problems)
	bb.Reset()
	checkWhole(t, "batched sort n=64 B=16", 64, func(v core.Vector) planRouter { return bb.Router(v) })
}
