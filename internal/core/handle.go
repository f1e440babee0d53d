package core

// Handle is a per-goroutine accessor to a MultiQueue. It owns a private
// random stream, the queue-selection state (see selector), and operation
// counters, so hot loops pay no synchronisation beyond the queue locks
// themselves. A Handle must not be shared between goroutines.
//
// On a sharded MultiQueue (WithShards) every handle is pinned to a home
// shard, round-robin in creation order, and its samples stay within that
// shard with probability WithLocalBias.
type Handle[V any] struct {
	mq  *MultiQueue[V]
	sel selector[V]
	// Local pop buffer for DeleteMinBuffered: elements already removed from
	// the shared structure, waiting to be returned to this handle's owner.
	// Drained front to back before the shared queues are re-sampled.
	popKeys []uint64
	popVals []V
	popPos  int
	popLen  int
	// stats, maintained without atomics (single-owner).
	inserts      int64
	deletes      int64
	bufferedPops int64
}

// Handle returns a new dedicated handle for the calling goroutine.
func (mq *MultiQueue[V]) Handle() *Handle[V] {
	return mq.newHandle()
}

func (mq *MultiQueue[V]) newHandle() *Handle[V] {
	id := mq.hseq.Add(1)
	h := &Handle[V]{mq: mq}
	h.sel.init(mq, int(id))
	return h
}

// HandleStats reports a handle's operation counters.
type HandleStats struct {
	// Inserts and Deletes count completed operations (batch operations count
	// each element).
	Inserts, Deletes int64
	// LockFails counts try-lock failures that forced a fresh random queue.
	LockFails int64
	// EmptyScans counts deletion attempts that found the sampled queue(s)
	// empty, or found a sampled queue drained behind its cached top. The
	// all-empty sample that precedes the sweep of every queue counts too,
	// so each empty return (DeleteMin's ok=false, DeleteMinBatch's 0) adds
	// at least one.
	EmptyScans int64
	// BufferedPops counts DeleteMinBuffered results served from the
	// handle-local pop buffer rather than directly from a shared queue.
	BufferedPops int64
	// Buffered is the current handle-local pop-buffer occupancy: elements
	// already removed from the shared structure but not yet returned.
	Buffered int
}

// Stats returns the handle's counters.
func (h *Handle[V]) Stats() HandleStats {
	return HandleStats{
		Inserts:      h.inserts,
		Deletes:      h.deletes,
		LockFails:    h.sel.lockFails,
		EmptyScans:   h.sel.emptyScans,
		BufferedPops: h.bufferedPops,
		Buffered:     h.popLen - h.popPos,
	}
}

// Insert adds an element. Keys equal to the maximum uint64 are clamped down
// by one (that value is the internal empty sentinel).
//
//powervet:hotpath
func (h *Handle[V]) Insert(key uint64, value V) {
	if key == emptyTop {
		key = emptyTop - 1
	}
	mq := h.mq
	if mq.atomic {
		mq.globalMu.Lock()
		h.sel.refresh()
		q := h.sel.sampleInsertQueue()
		q.push(key, value)
		mq.globalMu.Unlock()
		h.inserts++
		return
	}
	q := h.sel.lockForInsert()
	q.push(key, value)
	q.unlock()
	h.inserts++
}

// DeleteMin removes and returns an element of relaxed minimum priority.
// It returns ok=false when a full sweep of the cached tops finds every
// queue empty; inserts still in flight at sweep time may be missed (relaxed
// emptiness, see MultiQueue).
//
// Elements a prior DeleteMinBuffered left in the handle-local pop buffer are
// served first: they are already removed from the shared structure, so
// skipping them here would lose them for good (they used to be silently
// stranded when a caller switched back to unbuffered pops —
// TestUnbufferedPopsDrainHandleBuffer).
//
//powervet:hotpath
func (h *Handle[V]) DeleteMin() (uint64, V, bool) {
	if h.popPos < h.popLen {
		// Deliberately no h.deletes++: the element was already counted when
		// its batch was removed (DeleteMinBatch counts all n at pop time).
		i := h.popPos
		h.popPos++
		h.bufferedPops++
		return h.popKeys[i], h.popVals[i], true
	}
	mq := h.mq
	if mq.atomic {
		q := h.sel.lockNonEmptyAtomic()
		if q == nil {
			var zero V
			return 0, zero, false
		}
		it, _ := q.popMin()
		mq.globalMu.Unlock()
		h.deletes++
		return it.Key, it.Value, true
	}
	q := h.sel.lockNonEmptyQueue()
	if q == nil {
		var zero V
		return 0, zero, false
	}
	it, _ := q.popMin()
	q.unlock()
	h.deletes++
	return it.Key, it.Value, true
}
