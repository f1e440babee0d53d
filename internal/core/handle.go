package core

// Handle is a per-goroutine accessor to a MultiQueue. It owns a private
// random stream, the queue-selection state (see selector), and operation
// counters, so hot loops pay no synchronisation beyond the queue locks
// themselves. A Handle must not be shared between goroutines.
type Handle[V any] struct {
	mq  *MultiQueue[V]
	sel selector[V]
	// stats, maintained without atomics (single-owner).
	inserts int64
	deletes int64
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
}

// Stats returns the handle's counters.
func (h *Handle[V]) Stats() HandleStats {
	return HandleStats{
		Inserts:    h.inserts,
		Deletes:    h.deletes,
		LockFails:  h.sel.lockFails,
		EmptyScans: h.sel.emptyScans,
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
//powervet:hotpath
func (h *Handle[V]) DeleteMin() (uint64, V, bool) {
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
