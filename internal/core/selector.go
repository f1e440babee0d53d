package core

import (
	"powerchoice/internal/backoff"
	"powerchoice/internal/xrand"
)

// selector is the queue-selection component of a Handle: it owns the
// locality coin (shard-aware two-level sampling), the β coin and d-choice
// sampling of the deletion rule, the sticky-streak state, and the obstacle
// accounting (lockFails/emptyScans) all of those share. Before it existed,
// this logic was duplicated — with slowly drifting accounting — across four
// hot paths (Insert, DeleteMin, InsertBatch, DeleteMinBatch); now each of
// them is a thin push/pop wrapper over the two lock* entry points below.
//
// The selector is embedded by value in Handle and holds no interfaces, so
// the hot path stays devirtualized (direct calls on a concrete struct) and
// allocation-free in steady state (TestHandleOpsAllocationFree and friends):
// the d-choice scratch buffer is sized at construction, and nothing here
// closes over anything.
type selector[V any] struct {
	mq *MultiQueue[V]
	// cur is the topology snapshot this handle's current operation resolves
	// through: loaded once per operation (refresh), compared by pointer —
	// snapshots are immutable, so a changed pointer is a changed epoch — and
	// re-pinned on change (repin). Between operations it may go stale by at
	// most one in-flight op's worth of work; the drain contract of Resize
	// covers exactly that window.
	cur     *topology[V]
	rng     *xrand.Source
	scratch []int // d-choice sample buffer, sized at construction (d > 2)
	// plan is the current snapshot's precompiled sampling plan, copied by
	// value at repin so the hot path reads coin kinds, integer thresholds and
	// the global bounded-draw fast paths from the selector's own cache lines
	// instead of chasing the snapshot pointer per draw.
	plan drawPlan
	// choices and stickiness mirror the owning MultiQueue's immutable
	// configuration so the per-op paths read them from the selector's own
	// cache lines instead of dereferencing mq.
	choices    int
	stickiness int
	// id is the handle's 1-based creation index, kept for round-robin home
	// re-pinning when the epoch turns over.
	id int
	// Home-shard scope: the contiguous queue range [homeLo, homeLo+homeN)
	// this handle's scope-local samples draw from. Covers the whole
	// structure when the snapshot is unsharded.
	homeLo, homeN int
	// Sticky state: remembered queues and remaining streak lengths (only
	// used when the MultiQueue was built WithStickiness > 1).
	stickyIns *lockedQueue[V]
	insLeft   int
	stickyDel *lockedQueue[V]
	delLeft   int
	// Obstacle counters, maintained without atomics (single-owner).
	lockFails  int64
	emptyScans int64
}

// init prepares the selector for the handle with the given 1-based id.
// Handles are pinned to home shards round-robin in creation order, so any
// set of g or more handles covers every shard.
func (s *selector[V]) init(mq *MultiQueue[V], id int) {
	s.mq = mq
	s.id = id
	s.choices = mq.choices
	s.stickiness = mq.stickiness
	s.rng = mq.sharded.Source(id)
	if mq.choices > 2 {
		// Allocated here, not lazily on the d-choice hot path: sampling
		// must stay allocation-free (TestHandleOpsAllocationFree).
		s.scratch = make([]int, mq.choices)
	}
	s.repin(mq.topo.Load())
}

// refresh loads the live topology snapshot at the top of an operation. The
// steady-state cost is one atomic pointer load and one compare; only an
// epoch change (a completed Resize) takes the repin path.
//
//powervet:hotpath
func (s *selector[V]) refresh() {
	if t := s.mq.topo.Load(); t != s.cur {
		s.repin(t)
	}
}

// repin adopts a topology snapshot: re-pin the home shard round-robin by
// handle id against the snapshot's shard partition, and drop both sticky
// streaks — a remembered queue may have been retired with the old epoch.
// Cold: runs once per handle per Resize.
func (s *selector[V]) repin(t *topology[V]) {
	s.cur = t
	s.plan = t.plan
	n := len(t.queues)
	s.homeLo, s.homeN = 0, n
	if t.shards > 1 {
		home := (s.id - 1) % t.shards
		lo := home * n / t.shards
		hi := (home + 1) * n / t.shards
		s.homeLo, s.homeN = lo, hi-lo
	}
	s.stickyIns, s.insLeft = nil, 0
	s.stickyDel, s.delLeft = nil, 0
}

// flipLocal flips the locality coin: true means this sample is scoped to
// the handle's home shard. The plan compiled the degenerate cases into coin
// kinds, so unsharded snapshots (and zero or saturated biases) never touch
// the generator — their draw sequences are bit-identical to the pre-sharding
// code under a fixed seed — and a fractional bias costs one generator
// advance and an integer compare, no float conversion.
//
//powervet:hotpath
func (s *selector[V]) flipLocal() bool {
	switch s.plan.local {
	case coinNever:
		return false
	case coinAlways:
		return true
	default:
		return s.rng.Coin(s.plan.localThr)
	}
}

// flipBeta flips the β coin of the (1+β) rule: true applies the d-choice
// comparison, false pops a single uniform queue. Like flipLocal, the
// degenerate kinds (β=1 — the paper's pure two-choice rule and the default —
// and d < 2 or β=0) flip no coin at all.
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
// operation lands on, within the scope the locality coin chose, through the
// scope's precompiled bounded-draw plan.
//
//powervet:hotpath
func (s *selector[V]) sampleInsertQueue() *lockedQueue[V] {
	if s.flipLocal() {
		return s.cur.queues[s.homeLo+s.rng.Intn(s.homeN)]
	}
	return s.cur.queues[s.rng.Intn(len(s.cur.queues))]
}

// sampleDeleteQueue applies the (1+β) d-choice rule within the scope the
// locality coin chose, returning nil when every sampled candidate is empty.
// A scope-local draw that comes up all-empty counts as an emptyScan and
// falls back to one global draw: without the fallback a handle with bias
// p = 1 would spin forever on a drained home shard while other shards still
// held elements. useChoice is the β coin's outcome, flipped by the caller —
// once per operation on the lock-free path, once per global-lock acquisition
// in atomic mode (see lockNonEmptyQueue/lockNonEmptyAtomic) — so a local
// draw and its global fallback share one flip.
//
//powervet:hotpath
func (s *selector[V]) sampleDeleteQueue(useChoice bool) *lockedQueue[V] {
	if s.flipLocal() {
		if q := s.sampleScoped(s.homeLo, s.homeN, useChoice); q != nil {
			return q
		}
		s.emptyScans++
	}
	return s.sampleScoped(0, len(s.cur.queues), useChoice)
}

//powervet:hotpath
func (s *selector[V]) sampleScoped(lo, n int, useChoice bool) *lockedQueue[V] {
	queues := s.cur.queues
	switch {
	case !useChoice:
		q := queues[lo+s.rng.Intn(n)]
		if q.top.Load() == emptyTop {
			return nil
		}
		return q
	case s.choices == 2:
		var i, j int
		if n <= xrand.MaxLaneBound {
			i, j = s.rng.TwoDistinct32(n)
		} else {
			i, j = s.rng.TwoDistinct(n)
		}
		qi, qj := queues[lo+i], queues[lo+j]
		ti, tj := qi.top.Load(), qj.top.Load()
		if ti == emptyTop && tj == emptyTop {
			return nil
		}
		if ti <= tj {
			return qi
		}
		return qj
	default:
		s.rng.KDistinct(s.scratch, n)
		var best *lockedQueue[V]
		bestTop := uint64(emptyTop)
		for _, i := range s.scratch {
			q := queues[lo+i]
			if t := q.top.Load(); t < bestTop {
				best, bestTop = q, t
			}
		}
		return best
	}
}

// lockForInsert returns a LOCKED queue for an insert-side operation; the
// caller pushes (one element or a batch — a batch counts as one operation
// against the sticky streak) and unlocks. Sticky fast path and obstacle
// accounting are shared by Insert and InsertBatch: reuse the last insertion
// queue while the streak lasts and its lock is free; any obstacle breaks the
// streak and counts a lockFail.
//
//powervet:hotpath
//powervet:locks result.lock
func (s *selector[V]) lockForInsert() *lockedQueue[V] {
	s.refresh()
	if s.insLeft > 0 && s.stickyIns != nil {
		if q := s.stickyIns; q.lock.TryLock() {
			s.insLeft--
			return q
		}
		s.lockFails++
		s.insLeft = 0
	}
	var bo backoff.Spinner
	for {
		q := s.sampleInsertQueue()
		if q.lock.TryLock() {
			if s.stickiness > 1 {
				s.stickyIns = q
				s.insLeft = s.stickiness - 1
			}
			return q
		}
		s.lockFails++
		bo.Spin()
	}
}

// lockNonEmptyQueue runs the shared deletion-selection loop for DeleteMin
// and DeleteMinBatch: sticky fast path, (1+β) d-choice sampling, try-lock,
// and the obstacle accounting all of them share. It returns the chosen
// queue LOCKED and verified non-empty — count is written only under the
// queue lock, so reading it while holding the lock is exact and the
// caller's pop cannot fail — or nil when a full sweep of the cached tops
// found every queue empty (relaxed emptiness, see MultiQueue).
//
// Obstacle accounting, identical on every path: a failed TryLock is a
// lockFail; a queue drained behind a stale cached top (or a remembered
// sticky queue whose cached top already reads empty) is an emptyScan; any
// obstacle breaks a sticky streak.
//
//powervet:hotpath
//powervet:locks result.lock
func (s *selector[V]) lockNonEmptyQueue() *lockedQueue[V] {
	s.refresh()
	if s.delLeft > 0 && s.stickyDel != nil {
		q := s.stickyDel
		switch {
		case q.top.Load() == emptyTop:
			// The remembered queue's cached top reads empty. This used to
			// break the streak silently while every other obstacle was
			// counted; it is the same condition the slow path counts as an
			// emptyScan (TestStickyDeleteCountsEmptyTop).
			s.emptyScans++
		case !q.lock.TryLock():
			s.lockFails++
		case q.count > 0:
			s.delLeft--
			return q
		default:
			// Drained between the unsynchronised top read and the lock
			// acquisition.
			q.emptyUnderLock()
			q.unlock()
			s.emptyScans++
		}
		s.delLeft = 0
	}
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
			// the structure empty. A Resize that swapped the topology
			// mid-operation can make the *old* snapshot read empty while the
			// drain moved everything to new queues — re-pin to the live
			// snapshot before giving up.
			s.emptyScans++
			if t := s.mq.topo.Load(); t != s.cur {
				s.repin(t)
				continue
			}
			if !s.cur.anyNonEmpty() {
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
		if q.count > 0 {
			if s.stickiness > 1 {
				s.stickyDel = q
				s.delLeft = s.stickiness - 1
			}
			return q
		}
		q.emptyUnderLock()
		q.unlock()
		s.emptyScans++
	}
}

// lockNonEmptyAtomic is lockNonEmptyQueue under the global lock (Appendix
// C's distributionally linearizable mode): the whole sample-and-pop pair
// executes atomically, so the caller pops and then releases mq.globalMu.
// Returns a non-empty queue with the global lock HELD, or nil with the lock
// released when the structure is empty. No stickiness: atomic mode is the
// paper's fully random reference process.
//
//powervet:hotpath
//powervet:locks globalMu
func (s *selector[V]) lockNonEmptyAtomic() *lockedQueue[V] {
	mq := s.mq
	var bo backoff.Spinner
	for {
		mq.globalMu.Lock()
		// Refresh under the global lock: atomic-mode Resize swaps the
		// snapshot while holding it, so the view adopted here is stable for
		// the whole critical section.
		s.refresh()
		q := s.sampleDeleteQueue(s.flipBeta())
		if q == nil {
			empty := !s.cur.anyNonEmpty()
			mq.globalMu.Unlock()
			s.emptyScans++
			if empty {
				return nil
			}
			bo.Spin()
			continue
		}
		if q.count > 0 {
			return q
		}
		q.emptyUnderLock()
		mq.globalMu.Unlock()
		s.emptyScans++
	}
}
