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
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
type MultiQueue[V any] struct {
	// topo is the current topology snapshot: the queue set and epoch every
	// operation resolves through (see topology). Replaced wholesale by
	// Resize; hot paths load it once per operation.
	topo     atomic.Pointer[topology[V]]
	beta     float64
	choices  int
	atomic   bool
	resolved Config
	// plan is the sampling plan compiled from d and β at construction (see
	// drawPlan); selectors copy it at init.
	plan drawPlan

	globalMu sync.Mutex // used only in atomic mode
	handles  sync.Pool
	sharded  *xrand.Sharded
	hseq     atomicInt64
	// resizeMu serialises Resize; resizes counts completed reconfigurations.
	resizeMu sync.Mutex
	resizes  atomicInt64
	// drainSeq round-robins retired-queue drain batches over live queues so a
	// shrink spreads the moved elements instead of piling them on one heap.
	drainSeq atomicInt64
}

// topology is an immutable, versioned snapshot of the MultiQueue's queue
// set: the queues themselves and the epoch that versions them. A snapshot is
// never mutated after publication — Resize builds a fresh one (surviving
// queues keep their identity as pointers) and swaps the atomic pointer, so a
// hot path that loaded a snapshot works against a consistent queue set for
// the whole operation, and an epoch comparison is one pointer compare.
type topology[V any] struct {
	queues []*lockedQueue[V]
	epoch  uint64
}

// anyNonEmpty sweeps the snapshot's cached tops for a non-empty queue.
//
//powervet:hotpath
func (t *topology[V]) anyNonEmpty() bool {
	for _, q := range t.queues {
		if q.top.Load() != emptyTop {
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
// The payload is 73 bytes (lock word 4 + align 4, top 8, dary split-slice
// headers 48, mq back-pointer 8, closed 1); the pad brings the size to 128
// — a multiple of two 64-byte cache lines, so adjacent queues in a
// topology's backing array never share a line and the adjacent-line
// prefetcher cannot couple them either. The hot words every operation
// touches (lock word, top, both slice headers) end at byte 64. A 72-byte
// version of this struct once left every element straddling lines with its
// neighbours despite this comment claiming otherwise;
// TestLockedQueuePaddedToCacheLinePair pins the layout.
//
//powervet:cacheline=128
type lockedQueue[V any] struct {
	lock queuedLock
	top  atomicUint64 // cached minimum key, emptyTop when empty
	dary pqueue.DAryHeap[V]
	// mq points back to the owning MultiQueue so a retired queue's unlock
	// hook can reach the live snapshot to drain into. Set at construction,
	// read-only afterwards.
	mq *MultiQueue[V]
	// closed marks a queue retired by Resize: it is out of the current
	// snapshot, and whoever holds its lock moves every element it still
	// carries into live queues before releasing (see unlock/drainRetired).
	// Guarded by lock (globalMu in atomic mode).
	closed bool
	_      [55]byte // pad the 73-byte payload to 128 bytes
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
	// min(2, n-1) for the n queues the structure was built with, at least
	// 1. Resize does not change it.
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
		beta:    cfg.beta,
		choices: cfg.choices,
		atomic:  cfg.atomicMode,
		plan:    buildDrawPlan(cfg.choices, cfg.beta),
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
	mq.topo.Store(&topology[V]{queues: mq.makeQueues(cfg.queues)})
	mq.handles.New = func() any { return mq.newHandle() }
	return mq, nil
}

// makeQueues allocates n fresh empty queues in one contiguous backing array,
// returned as pointers so a later snapshot can mix them with surviving
// queues without copying lock state.
func (mq *MultiQueue[V]) makeQueues(n int) []*lockedQueue[V] {
	arr := make([]lockedQueue[V], n)
	qs := make([]*lockedQueue[V], n)
	for i := range arr {
		q := &arr[i]
		q.top.Store(emptyTop)
		q.mq = mq
		qs[i] = q
	}
	return qs
}

// snapshot returns the current topology. Tests and cold paths use it; hot
// paths load through the selector, which also tracks epoch changes.
func (mq *MultiQueue[V]) snapshot() *topology[V] { return mq.topo.Load() }

// NumQueues returns n, the number of internal queues in the live snapshot.
func (mq *MultiQueue[V]) NumQueues() int { return len(mq.topo.Load().queues) }

// Config returns the fully resolved configuration this MultiQueue runs
// with, including values that were derived rather than requested. Queues
// reports the live snapshot, so after a Resize the Config reflects the
// topology operations actually run against, not the construction-time one.
func (mq *MultiQueue[V]) Config() Config {
	cfg := mq.resolved
	cfg.Queues = mq.NumQueues()
	return cfg
}

// Beta returns the configured two-choice probability.
func (mq *MultiQueue[V]) Beta() float64 { return mq.beta }

// Epoch returns the live snapshot's epoch: 0 at construction, +1 per
// completed Resize. Handles adopt the new snapshot when they observe a new
// epoch.
func (mq *MultiQueue[V]) Epoch() uint64 { return mq.topo.Load().epoch }

// Resizes returns the number of completed Resize calls.
func (mq *MultiQueue[V]) Resizes() int64 { return mq.resizes.Load() }

// Len returns the number of elements present. It reads each queue's heap
// length under that queue's lock, so under concurrent mutation the value is
// still approximate — queues are visited in sequence, not snapshotted
// together — and exact whenever no operation is in flight. Len briefly
// contends each queue lock; it is not for hot paths.
func (mq *MultiQueue[V]) Len() int {
	total := 0
	t := mq.topo.Load()
	if mq.atomic {
		mq.globalMu.Lock()
		for _, q := range t.queues {
			total += q.dary.Len()
		}
		mq.globalMu.Unlock()
		return total
	}
	for _, q := range t.queues {
		q.lock.Lock()
		total += q.dary.Len()
		q.lock.Unlock()
	}
	return total
}

// Resize installs a new topology snapshot with the given queue count,
// online: operations keep running while the epoch turns over. Growing
// appends fresh empty queues; shrinking retires the topology's tail —
// retired queues are marked closed-for-insert under their own lock and
// drained into surviving queues by the unlock hook, so every element an
// in-flight operation lands on a retired queue is moved exactly once by
// whoever holds that lock last. Resize returns only after every retired
// queue has drained to zero.
//
// Concurrent Resize calls serialise on an internal mutex. The queue count
// must stay >= Choices (a two-choice draw needs two distinct queues). Choices
// itself is fixed at construction: Resize does not re-derive it, so shrinking
// a two-choice structure to two queues leaves d = n, an exact queue.
// Operations that raced the swap may briefly work against the previous
// snapshot: inserts there are recovered by the drain, and a DeleteMin
// sweeping a stale, fully-drained snapshot can report empty once — the same
// relaxed-emptiness caveat concurrent inserts already carry.
func (mq *MultiQueue[V]) Resize(queues int) error {
	if queues < 1 {
		return fmt.Errorf("core: resize to %d queues; need at least one", queues)
	}
	if queues < mq.choices {
		return fmt.Errorf("core: resize to %d queues below choices %d", queues, mq.choices)
	}
	mq.resizeMu.Lock()
	err := mq.resizeLocked(queues)
	mq.resizeMu.Unlock()
	return err
}

// resizeLocked is Resize's body, run with resizeMu held (kept in its own
// function so the per-queue retire locking below is not nested inside a held
// mutex scope — the drain's lock order is retired → live only, and resizeMu
// serialises closers, so only the latest snapshot's queues are ever live).
func (mq *MultiQueue[V]) resizeLocked(queues int) error {
	old := mq.topo.Load()
	if queues == len(old.queues) {
		return nil
	}
	keep := len(old.queues)
	if queues < keep {
		keep = queues
	}
	nq := make([]*lockedQueue[V], queues)
	copy(nq, old.queues[:keep])
	if queues > keep {
		copy(nq[keep:], mq.makeQueues(queues-keep))
	}
	nt := &topology[V]{queues: nq, epoch: old.epoch + 1}
	retired := old.queues[keep:]
	if mq.atomic {
		// Atomic mode: the global lock covers every queue, so the swap, the
		// closing and the drain are one critical section — no operation can
		// observe a retired queue at all.
		mq.globalMu.Lock()
		mq.topo.Store(nt)
		var keys [drainBatch]uint64
		var vals [drainBatch]V
		for _, q := range retired {
			q.closed = true
			for {
				n := q.popBatch(keys[:], vals[:], drainBatch)
				if n == 0 {
					break
				}
				i := int(uint64(mq.drainSeq.Add(1)) % uint64(len(nt.queues)))
				nt.queues[i].pushBatch(keys[:n], vals[:n])
			}
		}
		mq.globalMu.Unlock()
		mq.resizes.Add(1)
		return nil
	}
	// Publish the snapshot first, then retire: after the swap no sample can
	// pick a retired queue from the live topology, and closing under each
	// queue's lock hands the drain to the unlock hook. A racing stale-snapshot
	// insert that lands on a retired queue after this loop is recovered by its
	// own unlock (closed stays set forever), so exact-once holds without an
	// insert-side check.
	mq.topo.Store(nt)
	for _, q := range retired {
		q.lock.Lock()
		q.closed = true
		q.unlock()
	}
	mq.resizes.Add(1)
	return nil
}

// drainBatch is the number of elements a retired-queue drain moves per
// target-queue acquisition.
const drainBatch = 64

// unlock releases q after an operation. On a queue retired by Resize
// (closed) it first moves every element still present into live queues
// (drainRetired): the holder-side placement means a stale insert that lands
// on a retired queue is recovered by its own release — exact-once with no
// insert-side topology check. All non-atomic-mode release sites go through
// here; on a live queue it is one bool check on top of the store.
//
//powervet:hotpath
//powervet:unlocks recv.lock
func (q *lockedQueue[V]) unlock() {
	if q.closed {
		q.drainRetired()
	}
	q.lock.Unlock()
}

// drainRetired moves every element left in the closed queue q into live
// queues of the current snapshot. Called by unlock with q.lock held; cold by
// construction (a queue is closed at most once, and stale traffic onto it
// dies off with the old snapshot), so the stack buffers and blocking target
// acquisition below stay off the hot path.
func (q *lockedQueue[V]) drainRetired() {
	var keys [drainBatch]uint64
	var vals [drainBatch]V
	for {
		n := q.popBatch(keys[:], vals[:], drainBatch)
		if n == 0 {
			return
		}
		q.mq.drainInto(keys[:n], vals[:n])
	}
}

// drainInto pushes one drain batch into a live queue, round-robin over the
// current snapshot. The target is re-checked under its lock: it can only be
// closed if a newer Resize retired it between the snapshot load and the
// acquisition, in which case the fresh load of the retry sees the newer
// snapshot (whose queues are never closed — closing happens under resizeMu
// strictly after the next snapshot publishes). The caller holds a retired
// queue's lock, so the acquisition order is retired → live only — acyclic.
func (mq *MultiQueue[V]) drainInto(keys []uint64, vals []V) {
	for {
		t := mq.topo.Load()
		d := t.queues[int(uint64(mq.drainSeq.Add(1))%uint64(len(t.queues)))]
		//powervet:allow lockscope retired-to-live drain edge: the caller holds only a closed queue's lock and live queues never wait on closed ones, so the order is acyclic
		d.lock.Lock()
		if d.closed {
			d.lock.Unlock()
			continue
		}
		d.pushBatch(keys, vals)
		d.unlock()
		return
	}
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
