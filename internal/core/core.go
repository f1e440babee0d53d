// Package core implements the paper's practical contribution: the (1+β)
// MultiQueue, a relaxed concurrent priority queue built from n = c·P
// lock-protected sequential heaps (§1, §5).
//
// Insert picks a uniformly random queue, acquires its try-lock (retrying
// with a fresh random queue on failure, as in Rihani et al.), and pushes.
// DeleteMin flips a β-biased coin: with probability β it samples two
// distinct queues, compares their cached top priorities without locking,
// and pops from the better one; otherwise it pops from a single random
// queue. The paper proves (for the sequential process) that this keeps the
// expected removal rank O(n/β²) and the expected max rank O(n log n / β) at
// every point in time.
//
// The package also provides an Atomic mode in which the compare-and-remove
// pair executes under one global lock. That mode realises distributional
// linearizability (Appendix C): its removal distribution provably matches
// the sequential process, which the tests exploit.
package core

import (
	"math"
	"sync"

	"powerchoice/internal/pqueue"
	"powerchoice/internal/xrand"
)

// emptyTop is the cached-top sentinel for an empty queue. Keys equal to
// emptyTop are clamped down by one on Insert (documented relaxation: the
// largest possible priority loses one ULP of distinction).
const emptyTop = math.MaxUint64

// MultiQueue is a relaxed concurrent priority queue. Smaller keys have
// higher priority. All methods are safe for concurrent use.
//
// Deletion semantics are relaxed: DeleteMin returns an element whose rank
// among all present elements is small in expectation (O(n) for β=1), not
// necessarily the global minimum. DeleteMin returns ok=false when a sweep
// of every queue finds them all empty; an insert that has not yet acquired
// its queue lock may be missed by a concurrent sweep (standard relaxed
// emptiness — the structure deliberately has no global counter, which would
// serialise all operations on one cache line).
//
// The queue set is fixed at construction: the paper's rank bounds hold for a
// fixed n, and nothing reconfigures it afterwards.
type MultiQueue[V any] struct {
	// queues is the fixed queue set, one contiguous array allocated by New;
	// selectors copy the slice header at init and index it directly.
	queues   []lockedQueue[V]
	beta     float64
	atomic   bool
	resolved Config
	// plan is the sampling plan compiled from d and β at construction (see
	// drawPlan); selectors copy it at init.
	plan drawPlan

	globalMu sync.Mutex // used only in atomic mode
	handles  sync.Pool
	sharded  *xrand.Sharded
	hseq     atomicInt64
}

// anyNonEmpty sweeps the queues' cached tops for a non-empty queue.
//
//powervet:hotpath
func anyNonEmpty[V any](queues []lockedQueue[V]) bool {
	for i := range queues {
		if queues[i].top.Load() != emptyTop {
			return true
		}
	}
	return false
}

// lockedQueue is one sequential heap with its try-lock and cached top,
// padded out to its own pair of cache lines so queue hot words do not
// false-share. top is written only under lock and read without it (the
// samplers' unsynchronised candidate comparison). The element count is the
// heap's own length, exact under the queue lock (globalMu in atomic mode),
// so Len takes each queue's lock briefly (it is a cold path).
//
// The heap is the flat 4-ary DAryHeap stored inline, so the hot path's
// Push/PopMin are direct calls on a concrete type — inlinable, no dynamic
// dispatch, no pointer chase to a separately allocated heap header.
//
// The payload is 64 bytes (lock word 4 + align 4, top 8, dary split-slice
// headers 48); the pad brings the size to 128 — a multiple of two 64-byte
// cache lines, so adjacent queues in the MultiQueue's array never share a
// line and the adjacent-line prefetcher cannot couple them either. The hot
// words every operation touches (lock word, top, both slice headers) fill
// the first line exactly. A 72-byte version of this struct once left every
// element straddling lines with its neighbours despite this comment claiming
// otherwise; TestLockedQueuePaddedToCacheLinePair pins the layout.
//
//powervet:cacheline=128
type lockedQueue[V any] struct {
	lock queuedLock
	top  atomicUint64 // cached minimum key, emptyTop when empty
	dary pqueue.DAryHeap[V]
	_    [64]byte // pad the 64-byte payload to 128 bytes
}

// Config reports the topology and parameters a MultiQueue actually resolved
// to, so harnesses can log what ran rather than what was requested. The
// derived queue count depends on GOMAXPROCS (with a floor, see
// minDerivedQueues); recording the resolved values is what makes benchmark
// output comparable across machines.
type Config struct {
	// Queues is n, the resolved number of internal queues.
	Queues int
	// Choices is d, the number of queues sampled per choice-deletion:
	// min(2, n-1), at least 1.
	Choices int
	// Beta is the two-choice probability β.
	Beta float64
	// Seed is the root seed of the per-handle random streams.
	Seed uint64
	// Atomic reports the distributionally linearizable validation mode.
	Atomic bool
	// QueuesPinned is true when WithQueues fixed n explicitly; false means
	// n was derived from queueFactor × GOMAXPROCS and the floor.
	QueuesPinned bool
}

// New constructs a MultiQueue from the given options (see Option).
func New[V any](opts ...Option) (*MultiQueue[V], error) {
	cfg, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	mq := &MultiQueue[V]{
		queues: make([]lockedQueue[V], cfg.queues),
		beta:   cfg.beta,
		atomic: cfg.atomicMode,
		plan:   buildDrawPlan(cfg.choices, cfg.beta),
		resolved: Config{
			Queues:       cfg.queues,
			Choices:      cfg.choices,
			Beta:         cfg.beta,
			Seed:         cfg.seed,
			Atomic:       cfg.atomicMode,
			QueuesPinned: cfg.queuesPinned,
		},
		//powervet:allow rngtag the MultiQueue is the designated owner of the raw root family at Config.Seed; harnesses must Tag away from it (tagging here would silently reseed every pinned stream)
		sharded: xrand.NewSharded(cfg.seed),
	}
	for i := range mq.queues {
		mq.queues[i].top.Store(emptyTop)
	}
	mq.handles.New = func() any { return mq.newHandle() }
	return mq, nil
}

// NumQueues returns n, the number of internal queues.
func (mq *MultiQueue[V]) NumQueues() int { return len(mq.queues) }

// Config returns the fully resolved configuration this MultiQueue runs
// with, including values that were derived rather than requested.
func (mq *MultiQueue[V]) Config() Config { return mq.resolved }

// Beta returns the configured two-choice probability.
func (mq *MultiQueue[V]) Beta() float64 { return mq.beta }

// Len returns the number of elements present. It reads each queue's heap
// length under that queue's lock, so under concurrent mutation the value is
// still approximate — queues are visited in sequence, not snapshotted
// together — and exact whenever no operation is in flight. Len briefly
// contends each queue lock; it is not for hot paths.
func (mq *MultiQueue[V]) Len() int {
	total := 0
	if mq.atomic {
		mq.globalMu.Lock()
		for i := range mq.queues {
			total += mq.queues[i].dary.Len()
		}
		mq.globalMu.Unlock()
		return total
	}
	for i := range mq.queues {
		q := &mq.queues[i]
		q.lock.Lock()
		total += q.dary.Len()
		q.lock.Unlock()
	}
	return total
}

// Insert adds an element using a pooled handle. Hot paths should hold a
// dedicated Handle instead (see Handle).
func (mq *MultiQueue[V]) Insert(key uint64, value V) {
	h := mq.handles.Get().(*Handle[V])
	h.Insert(key, value)
	mq.handles.Put(h)
}

// DeleteMin removes an element of (relaxed) minimum priority using a pooled
// handle. Hot paths should hold a dedicated Handle instead.
func (mq *MultiQueue[V]) DeleteMin() (uint64, V, bool) {
	h := mq.handles.Get().(*Handle[V])
	k, v, ok := h.DeleteMin()
	mq.handles.Put(h)
	return k, v, ok
}

// syncDary recomputes q's cached top from its heap after pops: it reads the
// new top key without copying the value. Callers must hold q.lock.
//
//powervet:hotpath
func (q *lockedQueue[V]) syncDary() {
	if k, ok := q.dary.MinKey(); ok {
		q.top.Store(k)
	} else {
		q.top.Store(emptyTop)
	}
}

// push inserts under the held lock. The cached top is maintained in O(1) —
// the new top is min(top, key) — so the common insert does no PeekMin at
// all. top is written only under q.lock, so a load and a store replace a
// CAS loop, and the store (an XCHG on amd64) is rare: a random key is below
// the current minimum with probability ~1/(n+1) on a queue of n elements.
//
//powervet:hotpath
func (q *lockedQueue[V]) push(key uint64, value V) {
	q.dary.Push(key, value)
	if key < q.top.Load() {
		q.top.Store(key)
	}
}

// pushBatch inserts all keys under the held lock with a single cached-top
// update at the end. Keys equal to the empty sentinel are clamped like
// Insert's. keys and vals must have equal length.
//
//powervet:hotpath
func (q *lockedQueue[V]) pushBatch(keys []uint64, vals []V) {
	minKey := uint64(emptyTop)
	for i, k := range keys {
		if k == emptyTop {
			k = emptyTop - 1
		}
		q.dary.Push(k, vals[i])
		if k < minKey {
			minKey = k
		}
	}
	if minKey < q.top.Load() {
		q.top.Store(minKey)
	}
}

// emptyUnderLock repairs the cached top of a queue found empty while its
// lock is held (the heap's length is exact under the lock). In normal
// operation the top cannot be stale at this point — every pop repairs it
// before unlocking — but anyNonEmpty must never be kept spinning by a stale
// non-empty top on an empty queue.
//
//powervet:hotpath
func (q *lockedQueue[V]) emptyUnderLock() {
	if q.top.Load() != emptyTop {
		q.top.Store(emptyTop)
	}
}

// popMin removes the minimum under the held lock and refreshes the cached
// top, including after a failed pop (a failed pop means the cached top
// was stale; the refresh repairs it to emptyTop).
//
//powervet:hotpath
func (q *lockedQueue[V]) popMin() (pqueue.Item[V], bool) {
	it, ok := q.dary.PopMin()
	q.syncDary()
	return it, ok
}

// popBatch removes up to k elements under the held lock into keys/vals with
// a single cached-top refresh at the end, returning the number removed.
// Elements land in ascending key order (they are successive heap minima).
//
//powervet:hotpath
func (q *lockedQueue[V]) popBatch(keys []uint64, vals []V, k int) int {
	n := 0
	for n < k {
		it, ok := q.dary.PopMin()
		if !ok {
			break
		}
		keys[n], vals[n] = it.Key, it.Value
		n++
	}
	q.syncDary()
	return n
}
