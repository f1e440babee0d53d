// Package sched is the generic relaxed-scheduling executor behind the
// repository's scheduling workloads (parallel SSSP, branch-and-bound, the
// priority job-server). It factors out the worker-loop skeleton those
// workloads share — pending-counter termination detection, per-goroutine
// queue-view resolution, idle backoff, and wasted-work accounting — so each
// workload reduces to a Task: pop a (key, item), possibly discard it as
// stale, possibly push successors.
//
// Termination is decided by a shared pending counter, not by the queue
// looking empty. To keep that counter's atomics off the per-item path, each
// worker holds pending *credits*: a finished entry earns one instead of
// decrementing pending, a push spends one instead of incrementing it, and a
// worker returns its credits in one Add when it holds more than a cap, and
// all of them whenever a pop fails. So pending never reads below the number
// of entries pushed (or seeded) but not yet handled, reads 0 only when every
// entry is handled, and over-counts by at most cap × workers: k−1 per worker
// in RunConfig (0 when unbatched, where every push and finished entry
// updates pending at once), and 0 in RunOpen, whose producers read pending
// as the number of items in the system.
//
// This is the execution pattern the paper's Figure 3 argument rests on:
// label-correcting workloads tolerate a relaxed pop order because stale
// entries are re-checked against workload state, so a relaxed queue trades a
// bounded amount of wasted work (Stats.Stale, bounded via the paper's rank
// bounds) for contention-free scaling.
//
// The executor can run batched (Config.Batch > 1): pushed successors are
// buffered worker-locally and published k at a time, and pops refill a
// worker-local buffer k at a time — one lock acquisition per k elements on
// queues with native bulk operations (Batched). Batching adds bounded extra
// relaxation: up to k−1 popped-but-unprocessed entries per worker are
// invisible to other workers (the k-LSM's trade); for label-correcting
// tasks this only costs extra Stats.Stale, never correctness, because every
// entry is re-checked when processed.
package sched

import (
	"sync"
	"sync/atomic"

	"powerchoice/internal/backoff"
)

// Queue is the concurrent priority queue interface the executor requires:
// smaller keys pop first, but the order may be relaxed. DeleteMin's ok=false
// may be a relaxed emptiness verdict (in-flight inserts can be missed, as in
// core.MultiQueue and the k-LSM); the executor therefore never treats a
// failed pop as termination — only the pending counter decides that.
type Queue[V any] interface {
	Insert(key uint64, value V)
	DeleteMin() (key uint64, value V, ok bool)
}

// Batched is implemented by queue views with native bulk operations that
// move k elements per lock acquisition (core.Handle via pqadapt). The
// executor uses it when Config.Batch > 1; queues without it still run
// batched through a loop fallback (worker-local buffering still applies,
// per-element shared-structure traffic remains).
type Batched[V any] interface {
	Queue[V]
	// InsertBatch inserts all keys; keys and vals must have equal length.
	InsertBatch(keys []uint64, vals []V)
	// DeleteMinBatch removes up to k elements into keys/vals and returns
	// the number removed; 0 means (relaxedly) empty.
	DeleteMinBatch(keys []uint64, vals []V, k int) int
}

// WorkerLocal is implemented by queues whose hot paths want a per-goroutine
// view (e.g. MultiQueue handles and k-LSM handles). The executor calls Local
// once in each worker and producer goroutine when available.
type WorkerLocal[V any] interface {
	Local() Queue[V]
}

// Flusher is implemented by queue views that buffer inserts view-locally
// and publish them in batches (the k-LSM handle). A goroutine that stops
// using such a view while others keep consuming — an open-system producer —
// must Flush on exit, or its buffered elements stay invisible forever and
// the run deadlocks waiting for them. Closed-system workers never need
// this: a view's own DeleteMin sees its own buffered inserts, and every
// worker keeps popping until global termination.
type Flusher interface {
	Flush()
}

// Resizable is a declaration-only seam: nothing in this module calls it.
// perfbench's pass-through view forwards these four methods and must keep
// exactly the optional interfaces of the adapter it wraps, so the
// MultiQueue adapter keeps them as stubs until perfbench drops the
// forwarding. The queue set is fixed at construction: NumQueues reports
// it, Resize always fails, and Epoch and Resizes read 0.
type Resizable interface {
	NumQueues() int
	Resize(queues, shards int) error
	Epoch() uint64
	Resizes() int64
}

// Item is one (key, value) work unit.
type Item[V any] struct {
	Key   uint64
	Value V
}

// Task processes one popped entry. It may discard the entry as stale
// (return false — counted in Stats.Stale, the relaxation's wasted work) and
// may push successors through push, which handles the pending accounting.
// Tasks run concurrently on all workers and must synchronise any shared
// workload state themselves (atomics, as in the SSSP distance array).
type Task[V any] func(key uint64, value V, push func(key uint64, value V)) bool

// Config bundles the executor's run parameters.
type Config struct {
	// Workers is the goroutine count (minimum 1).
	Workers int
	// Batch is the bulk-operation size k: pushed successors publish k at a
	// time and pops refill a worker-local buffer of k. 0 or 1 runs the
	// classic one-element-at-a-time loop.
	Batch int
}

// Stats reports the executor's work counters.
type Stats struct {
	// Processed counts popped entries the task accepted.
	Processed int64
	// Stale counts popped entries the task discarded — the "extra work"
	// cost of relaxation the paper's §6 discussion asks about.
	Stale int64
	// Pushed counts successors pushed by tasks (excluding seeds).
	Pushed int64
	// EmptyPops counts failed pops while other workers still held pending
	// entries (idle spinning, not completed work). Each worker's last pop
	// of a run also fails, since the worker checks for termination only
	// after a failed pop; that final pop is not counted here, though the
	// queue's own counters (core.HandleStats.EmptyScans) see it.
	EmptyPops int64
	// BufferedPops counts entries served from a worker-local pop buffer
	// rather than directly from the shared structure — the batching slack
	// (≤ Batch−1 entries per worker are invisible to other workers at any
	// time). Zero when running unbatched.
	BufferedPops int64
}

// RunConfig executes the task across cfg.Workers goroutines on a queue the
// caller already loaded with `preloaded` entries (so that seeding, e.g.
// millions of job-server inserts, can happen outside the caller's timed
// region) until every entry — preloaded and pushed successors — has been
// handled. It returns when the pending counter reaches zero, which is exact
// regardless of the queue's relaxed emptiness. Each worker may hold up to
// k−1 pending credits (see the package doc), so while the run is live the
// pending counter may exceed the unhandled entries by (k−1) × workers; it
// still reaches 0 exactly when every entry is handled.
func RunConfig[V any](q Queue[V], cfg Config, task Task[V], preloaded int64) Stats {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	batch := cfg.Batch
	if batch < 1 {
		batch = 1
	}
	// pending counts queue entries not yet fully processed, plus the
	// workers' credits; the run is done when it reaches zero. Entries
	// sitting in worker-local insert or pop buffers are still pending, so
	// batching cannot fake termination.
	var pending atomic.Int64
	pending.Add(preloaded)

	var tot workerTotals
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var bo backoff.Spinner
			workerLoop(q, batch, creditCap(batch), task, &pending, &tot,
				func() bool { return pending.Load() == 0 },
				bo.Spin, bo.Reset)
		}()
	}
	wg.Wait()
	return tot.stats()
}

// creditCap is the most pending credits a RunConfig worker at batch k holds
// between entries: k−1, the slack its pop buffer already hides from other
// workers, and 0 unbatched, where pending sees every push and finished entry.
func creditCap(batch int) int64 { return int64(batch) - 1 }

// workerTotals accumulates every worker's local counters into one shared
// Stats (workers add once at exit, not per operation).
type workerTotals struct {
	processed, stale, pushed, emptyPops, bufferedPops atomic.Int64
}

func (t *workerTotals) stats() Stats {
	return Stats{
		Processed:    t.processed.Load(),
		Stale:        t.stale.Load(),
		Pushed:       t.pushed.Load(),
		EmptyPops:    t.emptyPops.Load(),
		BufferedPops: t.bufferedPops.Load(),
	}
}

// resolveView returns the per-goroutine view of q when it offers one
// (WorkerLocal), else q itself.
func resolveView[V any](q Queue[V]) Queue[V] {
	if wl, ok := q.(WorkerLocal[V]); ok {
		return wl.Local()
	}
	return q
}

// workerLoop is the per-worker state machine shared by the closed-system
// runners and the open-system RunOpen: resolve the goroutine's queue view
// and (in batch mode) its local insert buffer and PopBuffer, then pop,
// process, and account until done() reports termination.
//
// pending is kept on credits (see the package doc), so it is always the
// true outstanding count plus the credits the workers hold, at most
// maxCredits each between entries.
//
// A successful pop proves pending ≥ 1, so done is consulted only after a
// failed pop, and only once the local insert buffer is flushed (it may
// hold the only pending work left) and every credit is returned (pending
// cannot read 0 while any worker holds one). idle runs after an
// unproductive pop that was not the last; progress runs on the first
// productive pop after an idle (e.g. to reset a backoff ladder). Must be
// called on the worker's own goroutine: the view and buffers it resolves
// are goroutine-local.
func workerLoop[V any](q Queue[V], batch int, maxCredits int64, task Task[V], pending *atomic.Int64,
	tot *workerTotals, done func() bool, idle, progress func()) {
	view := resolveView(q)
	var bq Batched[V]
	var popBuf *PopBuffer[V]
	var localProc, localStale, localPush, localEmpty int64
	// credits are finished entries whose pending.Add(-1) is still owed.
	var credits int64
	// Worker-local buffers (batch mode). Pushed successors accumulate in
	// ins* and publish k at a time; pops come through a PopBuffer, drained
	// before the shared structure is re-sampled.
	var insKeys []uint64
	var insVals []V
	if batch > 1 {
		bq = AsBatched(view)
		popBuf = NewPopBuffer[V](bq, batch)
		insKeys = make([]uint64, 0, batch)
		insVals = make([]V, 0, batch)
	}
	flush := func() {
		if len(insKeys) > 0 {
			bq.InsertBatch(insKeys, insVals)
			insKeys = insKeys[:0]
			insVals = insVals[:0]
		}
	}
	push := func(key uint64, value V) {
		localPush++
		// The entry must be pending before it is visible to any worker, or
		// a fast pop could fake termination: a held credit already counts
		// it.
		if credits > 0 {
			credits--
		} else {
			pending.Add(1)
		}
		if batch > 1 {
			insKeys = append(insKeys, key)
			insVals = append(insVals, value)
			if len(insKeys) >= batch {
				flush()
			}
			return
		}
		view.Insert(key, value)
	}
	idled := false
	for {
		var key uint64
		var v V
		var ok bool
		if batch <= 1 {
			key, v, ok = view.DeleteMin()
		} else {
			key, v, ok = popBuf.Pop()
		}
		if !ok {
			// Queue momentarily (or relaxedly) empty: other workers may
			// still process entries that spawn new ones, the next
			// open-system arrival may not have happened yet — or our own
			// successors are still sitting in the local insert buffer.
			// Publish them and return every credit before asking whether
			// the run is done.
			if batch > 1 {
				flush()
			}
			if credits > 0 {
				pending.Add(-credits)
				credits = 0
			}
			if done() {
				break
			}
			localEmpty++
			idle()
			idled = true
			continue
		}
		if idled {
			progress()
			idled = false
		}
		if task(key, v, push) {
			localProc++
		} else {
			localStale++
		}
		if credits++; credits > maxCredits {
			pending.Add(-credits)
			credits = 0
		}
	}
	// done() followed a failed pop, so both local buffers are empty and no
	// credit is held.
	tot.processed.Add(localProc)
	tot.stale.Add(localStale)
	tot.pushed.Add(localPush)
	tot.emptyPops.Add(localEmpty)
	if popBuf != nil {
		tot.bufferedPops.Add(popBuf.BufferedPops())
	}
}

// AsBatched returns q's native Batched view when it has one, or a
// per-element loop fallback otherwise — the same resolution the batched
// executor applies, exported for harnesses that drive batch operations
// directly (powerbench throughput/rank).
func AsBatched[V any](q Queue[V]) Batched[V] {
	if bq, ok := q.(Batched[V]); ok {
		return bq
	}
	return loopBatched[V]{q}
}

// PopBuffer is a worker-local batched pop front over a queue view: Pop
// serves elements from a local buffer refilled up to k at a time by
// DeleteMinBatch. It is the single implementation of the refill/consume
// state machine that the batched executor and the powerbench throughput and
// rank harnesses all share, so their buffered-pop accounting cannot drift.
// Not safe for concurrent use — each worker owns one.
type PopBuffer[V any] struct {
	bq     Batched[V]
	keys   []uint64
	vals   []V
	pos, n int
	served int64
}

// NewPopBuffer wraps q (resolving its native Batched view or the loop
// fallback, as AsBatched does) with a buffer of k elements; k is clamped to
// at least 1.
func NewPopBuffer[V any](q Queue[V], k int) *PopBuffer[V] {
	if k < 1 {
		k = 1
	}
	return &PopBuffer[V]{
		bq:   AsBatched(q),
		keys: make([]uint64, k),
		vals: make([]V, k),
	}
}

// Pop returns the next element, refilling the buffer from the shared
// structure when it is empty. ok=false is the underlying queue's relaxed
// emptiness verdict (and implies the local buffer is empty too).
//
//powervet:hotpath
func (p *PopBuffer[V]) Pop() (uint64, V, bool) {
	if p.pos < p.n {
		i := p.pos
		p.pos++
		p.served++
		return p.keys[i], p.vals[i], true
	}
	//powervet:allow hotpath Batched is the executor's abstraction boundary; one interface dispatch per k-element refill is the amortized design
	n := p.bq.DeleteMinBatch(p.keys, p.vals, len(p.keys))
	if n == 0 {
		var zero V
		return 0, zero, false
	}
	p.pos, p.n = 1, n
	return p.keys[0], p.vals[0], true
}

// BufferedPops counts pops served from the buffer rather than directly as a
// refill's first element — n−1 per full refill, the batching slack.
func (p *PopBuffer[V]) BufferedPops() int64 { return p.served }

// loopBatched adapts a plain Queue to Batched with per-element loops, so
// batch mode runs against every implementation: worker-local buffering still
// amortises executor overhead, while the shared structure keeps paying
// per-element costs.
type loopBatched[V any] struct {
	Queue[V]
}

func (l loopBatched[V]) InsertBatch(keys []uint64, vals []V) {
	for i := range keys {
		l.Insert(keys[i], vals[i])
	}
}

func (l loopBatched[V]) DeleteMinBatch(keys []uint64, vals []V, k int) int {
	if k > len(keys) {
		k = len(keys)
	}
	if k > len(vals) {
		k = len(vals)
	}
	n := 0
	for n < k {
		key, v, ok := l.DeleteMin()
		if !ok {
			break
		}
		keys[n], vals[n] = key, v
		n++
	}
	return n
}
