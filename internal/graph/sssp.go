package graph

import (
	"fmt"
	"math"
	"sync/atomic"

	"powerchoice/internal/pqueue"
	"powerchoice/internal/sched"
)

// Inf is the distance of unreachable nodes.
const Inf = math.MaxUint64

// Dijkstra computes single-source shortest paths sequentially with a 4-ary
// heap; it is the correctness reference and the single-thread baseline.
func Dijkstra(g *Graph, src int) ([]uint64, error) {
	n := g.NumNodes()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("graph: source %d outside [0,%d)", src, n)
	}
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	pq := pqueue.NewDAryHeap[int32]()
	pq.Push(0, int32(src))
	for {
		it, ok := pq.PopMin()
		if !ok {
			break
		}
		u := int(it.Value)
		if it.Key > dist[u] {
			continue // stale entry
		}
		for _, e := range g.Neighbors(u) {
			nd := it.Key + uint64(e.W)
			if nd < dist[e.To] {
				dist[e.To] = nd
				pq.Push(nd, e.To)
			}
		}
	}
	return dist, nil
}

// ConcurrentPQ is the queue interface the parallel SSSP driver requires.
// Implementations are adapters over the MultiQueue, the k-LSM, or a
// global-lock heap. Values carry the node ID. It is an alias of
// the generic executor's queue interface, so every adapter usable here runs
// any sched workload (branch-and-bound, the job server) unchanged.
type ConcurrentPQ = sched.Queue[int32]

// WorkerLocal is implemented by queues whose hot paths want a per-goroutine
// view (e.g. MultiQueue and k-LSM handles). The executor calls Local once in
// each worker goroutine when available.
type WorkerLocal = sched.WorkerLocal[int32]

// SSSPStats reports work counters from a parallel SSSP run.
type SSSPStats struct {
	// Relaxations counts successful distance improvements.
	Relaxations int64
	// WastedPops counts popped entries that were already stale — the "extra
	// work" cost of relaxation the paper's §6 discussion asks about.
	WastedPops int64
}

// ParallelSSSP computes single-source shortest paths with `workers`
// goroutines sharing the given relaxed priority queue, the benchmark of the
// paper's Figure 3. Distances converge to the exact values regardless of
// the queue's relaxation because stale entries are re-checked against an
// atomic best-distance array (label-correcting execution); relaxed queues
// trade extra wasted pops for reduced queue contention. The worker loop
// itself — termination detection, idle backoff, wasted-work accounting —
// is the generic sched executor; this function only defines the task.
func ParallelSSSP(g *Graph, src int, pq ConcurrentPQ, workers int) ([]uint64, SSSPStats, error) {
	return ParallelSSSPBatch(g, src, pq, workers, 1)
}

// ParallelSSSPBatch is ParallelSSSP with the executor's batch size exposed:
// pushed relaxations publish k at a time and pops refill worker-local
// buffers of k (see sched.Config.Batch). Batching is sound here for the same
// reason relaxation is: SSSP is label-correcting, so an entry delayed in a
// worker-local buffer is at worst popped stale and discarded against the
// atomic distance array — exactness is untouched, only WastedPops can grow.
//
// The returned slice is the distance array the workers wrote, not a copy.
// It is a plain []uint64 so that filling it costs plain stores rather than
// one locked exchange per node: the fill happens before sched.RunConfig
// starts its goroutines (a go statement orders those writes before the
// worker it starts), the workers touch it only through atomic loads and
// compare-and-swaps, and it is handed back once RunConfig has waited for
// all of them.
func ParallelSSSPBatch(g *Graph, src int, pq ConcurrentPQ, workers, batch int) ([]uint64, SSSPStats, error) {
	if pq == nil {
		return nil, SSSPStats{}, fmt.Errorf("graph: nil queue")
	}
	n := g.NumNodes()
	if src < 0 || src >= n {
		return nil, SSSPStats{}, fmt.Errorf("graph: source %d outside [0,%d)", src, n)
	}
	dist := make([]uint64, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0

	task := func(key uint64, u int32, push func(uint64, int32)) bool {
		if key > atomic.LoadUint64(&dist[u]) {
			return false // stale: a shorter path to u was already settled
		}
		for _, e := range g.Neighbors(int(u)) {
			nd := key + uint64(e.W)
			for {
				cur := atomic.LoadUint64(&dist[e.To])
				if nd >= cur {
					break
				}
				if atomic.CompareAndSwapUint64(&dist[e.To], cur, nd) {
					push(nd, e.To)
					break
				}
			}
		}
		return true
	}
	pq.Insert(0, int32(src))
	st := sched.RunConfig(pq, sched.Config{Workers: workers, Batch: batch}, task, 1)
	return dist, SSSPStats{
		Relaxations: st.Pushed,
		WastedPops:  st.Stale,
	}, nil
}
