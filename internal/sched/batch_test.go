package sched_test

import (
	"sync/atomic"
	"testing"

	"powerchoice/internal/graph"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
)

// TestRunConfigBatchedExactlyOnce: the batched executor must process every
// node of the implicit tree exactly once on every implementation — both the
// native bulk path (MultiQueue handles implement sched.Batched) and the loop
// fallback (everything else). Worker-local insert and pop buffers must never
// fake termination or drop entries.
func TestRunConfigBatchedExactlyOnce(t *testing.T) {
	nodes := int32(20000)
	if testing.Short() {
		nodes = 5000
	}
	for _, impl := range pqadapt.Impls() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			for _, batch := range []int{2, 8} {
				for _, workers := range []int{1, 4} {
					q, err := pqadapt.New(impl, 37)
					if err != nil {
						t.Fatal(err)
					}
					seen := make([]atomic.Int32, nodes)
					task := func(_ uint64, u int32, push func(uint64, int32)) bool {
						seen[u].Add(1)
						for c := 3*u + 1; c <= 3*u+3 && c < nodes; c++ {
							push(scrambleKey(c), c)
						}
						return true
					}
					q.Insert(scrambleKey(0), 0)
					st := sched.RunConfig[int32](q, sched.Config{Workers: workers, Batch: batch}, task, 1)
					if st.Processed != int64(nodes) {
						t.Fatalf("batch=%d workers=%d: processed %d of %d",
							batch, workers, st.Processed, nodes)
					}
					for u := range seen {
						if n := seen[u].Load(); n != 1 {
							t.Fatalf("batch=%d workers=%d: node %d processed %d times",
								batch, workers, u, n)
						}
					}
					if st.Pushed != int64(nodes)-1 {
						t.Fatalf("batch=%d workers=%d: stats inconsistent: %+v",
							batch, workers, st)
					}
					// Batched runs must actually use the local pop buffer
					// (k−1 of every full refill is served from it).
					if st.BufferedPops == 0 {
						t.Errorf("batch=%d workers=%d: no buffered pops counted", batch, workers)
					}
				}
			}
		})
	}
}

// TestBatchedSSSPEquivalence: batched label-correcting SSSP must still
// produce exactly Dijkstra's distances — delayed worker-local entries may
// only cost wasted pops, never correctness.
func TestBatchedSSSPEquivalence(t *testing.T) {
	g, err := graph.RoadNetwork(30, 30, 0.15, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range []pqadapt.Impl{pqadapt.ImplOneBeta75, pqadapt.ImplKLSM, pqadapt.ImplGlobalLock} {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			for _, batch := range []int{4, 16} {
				q, err := pqadapt.New(impl, 41)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := graph.ParallelSSSPBatch(g, 0, q, 4, batch)
				if err != nil {
					t.Fatal(err)
				}
				for u := range want {
					if got[u] != want[u] {
						t.Fatalf("batch=%d: dist[%d] = %d, want %d", batch, u, got[u], want[u])
					}
				}
			}
		})
	}
}

// TestBatchedStatsUnbatchedZero: an unbatched run must report zero
// BufferedPops — the field is the batching slack, not a generic counter.
func TestBatchedStatsUnbatchedZero(t *testing.T) {
	q, err := pqadapt.New(pqadapt.ImplMultiQueue, 43)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 100; i++ {
		q.Insert(scrambleKey(i), i)
	}
	task := func(_ uint64, _ int32, _ func(uint64, int32)) bool { return true }
	st := sched.RunConfig[int32](q, sched.Config{Workers: 2}, task, 100)
	if st.BufferedPops != 0 {
		t.Errorf("unbatched BufferedPops = %d", st.BufferedPops)
	}
}
