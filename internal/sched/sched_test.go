package sched_test

import (
	"sync/atomic"
	"testing"

	"powerchoice/internal/graph"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
)

// scrambleKey spreads node IDs over the key space so pops arrive in an
// order unrelated to insertion order — the executor must terminate on the
// pending counter alone, never on key monotonicity.
func scrambleKey(id int32) uint64 {
	return uint64(uint32(id)*2654435761) >> 4
}

// TestRunExpandsImplicitTreeExactlyOnce: a task that expands an implicit
// ternary tree must process every node exactly once on every queue
// implementation, at every worker count, with the executor's counters
// internally consistent. klsm256 is the nastiest case: its handle-local
// insert buffers make DeleteMin report empty while other workers' pushes
// are still unpublished, so only the pending counter prevents both
// premature exit and livelock.
func TestRunExpandsImplicitTreeExactlyOnce(t *testing.T) {
	nodes := int32(30000)
	if testing.Short() {
		nodes = 6000
	}
	for _, impl := range pqadapt.Impls() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				q, err := pqadapt.New(impl, 23)
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
				st := sched.RunConfig(q, sched.Config{Workers: workers}, task, 1)
				if st.Processed != int64(nodes) {
					t.Fatalf("workers=%d: processed %d of %d nodes", workers, st.Processed, nodes)
				}
				for u := range seen {
					if n := seen[u].Load(); n != 1 {
						t.Fatalf("workers=%d: node %d processed %d times", workers, u, n)
					}
				}
				// Counter consistency: every pop was either processed or
				// stale, and pops = seeds + pushes.
				if st.Stale != 0 || st.Pushed != int64(nodes)-1 {
					t.Fatalf("workers=%d: stats inconsistent: %+v", workers, st)
				}
			}
		})
	}
}

// TestRunSSSPEquivalenceAllImpls: the sched-based ParallelSSSP must produce
// exactly Dijkstra's distances on every implementation — the executor's
// termination detection may not drop or duplicate work no matter how
// relaxed the queue's pop order and emptiness are.
func TestRunSSSPEquivalenceAllImpls(t *testing.T) {
	g, err := graph.RoadNetwork(30, 30, 0.15, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := graph.Dijkstra(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range pqadapt.Impls() {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			q, err := pqadapt.New(impl, 29)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := graph.ParallelSSSP(g, 0, q, 4)
			if err != nil {
				t.Fatal(err)
			}
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("dist[%d] = %d, want %d", u, got[u], want[u])
				}
			}
			if st.Relaxations == 0 {
				t.Error("no relaxations counted")
			}
		})
	}
}

// TestRunPrefilledDrains: RunConfig must drain exactly the preloaded count
// and honour the stale verdict in the stats.
func TestRunPrefilledDrains(t *testing.T) {
	const n = 5000
	q, err := pqadapt.New(pqadapt.ImplOneBeta75, 31)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < n; i++ {
		q.Insert(scrambleKey(i), i)
	}
	task := func(_ uint64, u int32, _ func(uint64, int32)) bool {
		return u%3 != 0 // discard a third as "stale"
	}
	st := sched.RunConfig[int32](q, sched.Config{Workers: 3}, task, n)
	if st.Processed+st.Stale != n || st.Pushed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Stale == 0 {
		t.Error("stale verdicts not counted")
	}
	if _, _, ok := q.DeleteMin(); ok {
		t.Error("queue not fully drained")
	}
}

// TestRunClampsWorkers: workers < 1 must still run (clamped to one).
func TestRunClampsWorkers(t *testing.T) {
	q, err := pqadapt.New(pqadapt.ImplGlobalLock, 1)
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	task := func(_ uint64, _ int32, _ func(uint64, int32)) bool {
		count.Add(1)
		return true
	}
	q.Insert(1, 1)
	st := sched.RunConfig(q, sched.Config{Workers: 0}, task, 1)
	if st.Processed != 1 || count.Load() != 1 {
		t.Fatalf("stats: %+v, count %d", st, count.Load())
	}
}
