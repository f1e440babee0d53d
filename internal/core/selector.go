package core

import (
	"powerchoice/internal/backoff"
	"powerchoice/internal/xrand"
)

// selector is the queue-selection component of a Handle: it owns the β
// coin and two-choice sampling of the deletion rule, and the obstacle
// accounting (lockFails/emptyScans) they share. The four hot paths (Insert,
// DeleteMin, InsertBatch, DeleteMinBatch) are thin push/pop wrappers over
// its lock* entry points, so their accounting cannot drift apart.
//
// The selector is embedded by value in Handle and holds no interfaces, so
// the hot path stays devirtualized (direct calls on a concrete struct) and
// allocation-free in steady state (TestHandleOpsAllocationFree and friends):
// nothing here allocates or closes over anything.
type selector[V any] struct {
	mq *MultiQueue[V]
	// queues is the MultiQueue's fixed queue set, copied at init so a draw
	// indexes the array from the selector's own cache lines.
	queues []lockedQueue[V]
	rng    *xrand.Source
	// plan is the MultiQueue's compiled sampling plan, copied by value at
	// init so the hot path reads the coin kind and integer threshold from
	// the selector's own cache lines instead of chasing mq per draw.
	plan drawPlan
	// Obstacle counters, maintained without atomics (single-owner).
	lockFails  int64
	emptyScans int64
}

// init prepares the selector for the handle with the given 1-based id,
// which picks the handle's stream from the MultiQueue's family.
func (s *selector[V]) init(mq *MultiQueue[V], id int) {
	s.mq = mq
	s.rng = mq.sharded.Source(id)
	s.plan = mq.plan
	s.queues = mq.queues
}

// flipBeta flips the β coin of the (1+β) rule: true applies the two-choice
// comparison, false pops a single uniform queue. The plan compiled the
// degenerate kinds (β=1 — the paper's pure two-choice rule and the default —
// and d < 2 or β=0) into branches that flip no coin at all; a fractional β
// costs one generator advance and an integer compare, no float conversion.
//
//powervet:hotpath
func (s *selector[V]) flipBeta() bool {
	switch s.plan.beta {
	case coinNever:
		return false
	case coinAlways:
		return true
	default:
		return s.rng.Coin(s.plan.betaThr)
	}
}

// sampleInsertQueue picks the uniformly random queue an insert-side
// operation lands on.
//
//powervet:hotpath
func (s *selector[V]) sampleInsertQueue() *lockedQueue[V] {
	return &s.queues[s.rng.Intn(len(s.queues))]
}

// sampleDeleteQueue applies the (1+β) rule's deletion draw over the
// queues: one uniform queue, or under useChoice (only ever true at
// d = 2) the better-topped of two distinct ones. It returns nil when every
// candidate's cached top reads empty. useChoice is the β coin's outcome,
// flipped by the caller — once per operation on the lock-free path, once per
// global-lock acquisition in atomic mode (see
// lockNonEmptyQueue/lockNonEmptyAtomic).
//
//powervet:hotpath
func (s *selector[V]) sampleDeleteQueue(useChoice bool) *lockedQueue[V] {
	queues := s.queues
	n := len(queues)
	if !useChoice {
		q := &queues[s.rng.Intn(n)]
		if q.top.Load() == emptyTop {
			return nil
		}
		return q
	}
	var i, j int
	if n <= xrand.MaxLaneBound {
		i, j = s.rng.TwoDistinct32(n)
	} else {
		i, j = s.rng.TwoDistinct(n)
	}
	qi, qj := &queues[i], &queues[j]
	ti, tj := qi.top.Load(), qj.top.Load()
	if ti == emptyTop && tj == emptyTop {
		return nil
	}
	if ti <= tj {
		return qi
	}
	return qj
}

// lockForInsert returns a LOCKED queue for an insert-side operation; the
// caller pushes (one element or a batch) and unlocks. Insert and InsertBatch
// share its obstacle accounting: every lost try-lock counts a lockFail and
// re-samples a fresh random queue.
//
//powervet:hotpath
//powervet:locks result.lock
func (s *selector[V]) lockForInsert() *lockedQueue[V] {
	var bo backoff.Spinner
	for {
		q := s.sampleInsertQueue()
		if q.lock.TryLock() {
			return q
		}
		s.lockFails++
		bo.Spin()
	}
}

// lockNonEmptyQueue runs the shared deletion-selection loop for DeleteMin
// and DeleteMinBatch: (1+β) two-choice sampling, try-lock, and the obstacle
// accounting both of them share. It returns the chosen queue LOCKED and
// verified non-empty — the heap changes only under the queue lock, so
// reading its length while holding the lock is exact and the caller's pop
// cannot fail — or nil when a full sweep of the cached tops found every queue
// empty (relaxed emptiness, see MultiQueue).
//
// Obstacle accounting, identical on both paths: a failed TryLock is a
// lockFail; a queue drained behind a stale cached top, or a sample whose
// cached tops all read empty, is an emptyScan.
//
//powervet:hotpath
//powervet:locks result.lock
func (s *selector[V]) lockNonEmptyQueue() *lockedQueue[V] {
	// The β coin is flipped once per operation, not once per loop iteration:
	// retries here are lock-contention and stale-top artifacts of this
	// implementation, not deletions of the paper's process, so re-flipping
	// per retry would only spend generator advances (and under β=1, the
	// default, the kind compiles the flip away entirely). Atomic mode keeps
	// the per-acquisition flip — it is the distributionally linearizable
	// reference process the validation tests measure.
	useChoice := s.flipBeta()
	var bo backoff.Spinner
	for {
		q := s.sampleDeleteQueue(useChoice)
		if q == nil {
			// All sampled tops empty: sweep every queue before declaring
			// the structure empty.
			s.emptyScans++
			if !anyNonEmpty(s.queues) {
				return nil
			}
			bo.Spin()
			continue
		}
		if !q.lock.TryLock() {
			s.lockFails++
			bo.Spin()
			continue
		}
		if q.dary.Len() > 0 {
			return q
		}
		q.emptyUnderLock()
		q.lock.Unlock()
		s.emptyScans++
	}
}

// lockNonEmptyAtomic is lockNonEmptyQueue under the global lock (Appendix
// C's distributionally linearizable mode): the whole sample-and-pop pair
// executes atomically, so the caller pops and then releases mq.globalMu.
// Returns a non-empty queue with the global lock HELD, or nil with the lock
// released when the structure is empty. Atomic mode is the paper's fully
// random reference process.
//
//powervet:hotpath
//powervet:locks globalMu
func (s *selector[V]) lockNonEmptyAtomic() *lockedQueue[V] {
	mq := s.mq
	var bo backoff.Spinner
	for {
		mq.globalMu.Lock()
		q := s.sampleDeleteQueue(s.flipBeta())
		if q == nil {
			empty := !anyNonEmpty(s.queues)
			mq.globalMu.Unlock()
			s.emptyScans++
			if empty {
				return nil
			}
			bo.Spin()
			continue
		}
		if q.dary.Len() > 0 {
			return q
		}
		q.emptyUnderLock()
		mq.globalMu.Unlock()
		s.emptyScans++
	}
}
