package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerchoice/internal/backoff"
	"powerchoice/internal/pqueue"
)

// lockedHeap is an exact priority queue behind a mutex, with native bulk
// operations so workerLoop takes its batched path. Package sched cannot
// import pqadapt (pqadapt imports sched), so the test brings its own.
type lockedHeap struct {
	mu sync.Mutex
	h  *pqueue.DAryHeap[int32]
}

func (q *lockedHeap) Insert(key uint64, v int32) {
	q.mu.Lock()
	q.h.Push(key, v)
	q.mu.Unlock()
}

func (q *lockedHeap) DeleteMin() (uint64, int32, bool) {
	q.mu.Lock()
	it, ok := q.h.PopMin()
	q.mu.Unlock()
	return it.Key, it.Value, ok
}

func (q *lockedHeap) InsertBatch(keys []uint64, vals []int32) {
	q.mu.Lock()
	for i := range keys {
		q.h.Push(keys[i], vals[i])
	}
	q.mu.Unlock()
}

func (q *lockedHeap) DeleteMinBatch(keys []uint64, vals []int32, k int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for ; n < k; n++ {
		it, ok := q.h.PopMin()
		if !ok {
			break
		}
		keys[n], vals[n] = it.Key, it.Value
	}
	return n
}

// TestWorkerLoopPendingInvariant pins the pending-credit contract of the
// closed-system runner. workerLoop runs on its own pending counter with
// RunConfig's credit cap, expanding an implicit ternary tree, while the task
// compares pending with the entries it knows to be outstanding (seeds plus
// pushes minus finished entries) at every task entry and after every push:
//   - with one worker, outstanding ≤ pending ≤ outstanding + (k−1), with
//     equality at k = 1, where every push and finished entry must update
//     pending at once;
//   - with four workers, pending never reads below seeds + pushes − task
//     entries + 1, a lower bound on the outstanding count (the checking
//     entry itself is still outstanding).
//
// The run must also terminate with pending at 0 before a deadline: a worker
// that keeps a credit past its last failed pop leaves pending above 0
// forever, and done also reports the deadline so that such a run ends.
func TestWorkerLoopPendingInvariant(t *testing.T) {
	const nodes = 3000
	// key spreads node IDs over the key space, so pops come in an order
	// unrelated to the tree's shape and credits are earned and spent
	// interleaved.
	key := func(id int32) uint64 { return uint64(uint32(id)*2654435761) >> 4 }
	for _, k := range []int{1, 2, 8} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("k=%d/workers=%d", k, workers), func(t *testing.T) {
				maxOver := int64(k - 1) // the contract, not read from creditCap
				q := &lockedHeap{h: pqueue.NewDAryHeap[int32]()}
				q.Insert(key(0), 0)
				const seeds = 1
				var pending, pushes, entries atomic.Int64
				pending.Add(seeds)
				var bad atomic.Int64
				var first sync.Once
				check := func(where string) {
					// Pushes before pending, entries after it: every push
					// read was already counted in pending, and every entry
					// finished by the pending read was counted in entries,
					// so the lower bound can only be an under-estimate.
					p := pushes.Load()
					pd := pending.Load()
					e := entries.Load()
					lo := seeds + p - e + 1
					if pd < lo || (workers == 1 && pd > lo+maxOver) {
						bad.Add(1)
						first.Do(func() {
							t.Errorf("%s: pending = %d, outstanding ≥ %d, allowed over-count %d (pushes %d, task entries %d)",
								where, pd, lo, maxOver, p, e)
						})
					}
				}
				task := func(_ uint64, u int32, push func(uint64, int32)) bool {
					entries.Add(1)
					check("task entry")
					for c := 3*u + 1; c <= 3*u+3 && c < nodes; c++ {
						push(key(c), c)
						pushes.Add(1)
						check("after push")
					}
					return true
				}
				deadline := time.Now().Add(10 * time.Second)
				done := func() bool { return pending.Load() == 0 || time.Now().After(deadline) }
				var tot workerTotals
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var bo backoff.Spinner
						workerLoop[int32](q, k, creditCap(k), task, &pending, &tot, done, bo.Spin, bo.Reset)
					}()
				}
				wg.Wait()
				if pd := pending.Load(); pd != 0 {
					t.Fatalf("run did not terminate before the deadline: pending = %d, %d of %d entries handled",
						pd, entries.Load(), nodes)
				}
				if n := bad.Load(); n > 0 {
					t.Errorf("%d of %d observations broke the bound", n, entries.Load()+pushes.Load())
				}
				if st := tot.stats(); st.Processed != nodes || st.Pushed != nodes-1 {
					t.Fatalf("stats: %+v, want %d processed and %d pushed", st, nodes, nodes-1)
				}
			})
		}
	}
}
