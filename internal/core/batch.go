package core

// Batch operations amortise the MultiQueue's per-operation overhead — lock
// acquire/release, queue sampling, cached-top maintenance — over up to k
// elements, the k-LSM-style trade the repository already adapts in pqadapt
// (klsm256): one lock acquisition and one top refresh move k elements.
// Queue selection — the β coin, two-choice sampling and obstacle
// accounting — is the same selector the single-element operations use, so
// the two paths cannot drift
// (TestSingleAndBatchObstacleAccountingParity).
//
// The cost is a documented extra rank relaxation with two parts.
//
// Invisibility: a consumer that serves a batch one element at a time, such
// as sched.PopBuffer, holds up to k−1 already-removed elements where no
// other handle can see them, so with H handles up to (k−1)·H elements are
// invisible to concurrent deleters at any moment and every pop's rank can
// exceed the unbatched bound by at most that amount.
//
// Depth: a batch takes its queue's k smallest at once, so the j-th element
// consumed from a batch was that queue's rank-j element — up to (j−1) local
// ranks worse than the unbatched process, which always takes local rank 1
// of its chosen queue. On n balanced queues that is ≈ n·(k−1)/2 extra
// global rank in expectation (worst case (k−1)·n).
//
// Together the structure's O(n/β²) expected rank becomes
// O(n/β² + (k−1)·H + n·(k−1)/2); bench.TestRankQualityBatchedSlack pins the
// combined bound, and bench.TestJobsBatchingInversionBound pins its
// scheduling-quality face (priority inversions at k=4).

// InsertBatch adds len(keys) elements under a single lock acquisition and a
// single O(1) cached-top update. keys and vals must have equal length (the
// call panics otherwise — a programming error, not an input error); keys
// equal to the maximum uint64 are clamped down by one like Insert's. The
// whole batch lands on one queue: rank-wise this is equivalent to len(keys)
// consecutive inserts into that one queue.
//
//powervet:hotpath
func (h *Handle[V]) InsertBatch(keys []uint64, vals []V) {
	if len(keys) != len(vals) {
		panic("core: InsertBatch keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return
	}
	mq := h.mq
	if mq.atomic {
		mq.globalMu.Lock()
		h.sel.refresh()
		q := h.sel.sampleInsertQueue()
		q.pushBatch(keys, vals)
		mq.globalMu.Unlock()
		h.inserts += int64(len(keys))
		return
	}
	q := h.sel.lockForInsert()
	q.pushBatch(keys, vals)
	q.unlock()
	h.inserts += int64(len(keys))
}

// DeleteMinBatch removes up to k elements under a single lock acquisition
// and a single cached-top refresh, storing them in ascending key order into
// keys/vals and returning the number removed. k is clamped to the shorter of
// the two slices; k <= 0 means their full length. All removed elements come
// from one queue — the queue the (1+β) two-choice rule picks — so the batch
// is that queue's k smallest, not the structure's.
//
// A return of 0 means a full sweep of the cached tops found every queue
// empty (relaxed emptiness, exactly like DeleteMin's ok=false).
//
//powervet:hotpath
func (h *Handle[V]) DeleteMinBatch(keys []uint64, vals []V, k int) int {
	if k <= 0 || k > len(keys) {
		k = len(keys)
	}
	if k > len(vals) {
		k = len(vals)
	}
	if k == 0 {
		return 0
	}
	mq := h.mq
	if mq.atomic {
		q := h.sel.lockNonEmptyAtomic()
		if q == nil {
			return 0
		}
		n := q.popBatch(keys, vals, k)
		mq.globalMu.Unlock()
		h.deletes += int64(n)
		return n
	}
	q := h.sel.lockNonEmptyQueue()
	if q == nil {
		return 0
	}
	n := q.popBatch(keys, vals, k)
	q.unlock()
	h.deletes += int64(n)
	return n
}
