// Package klsm implements a k-relaxed priority queue in the spirit of the
// k-LSM of Wimmer et al. [38], the relaxed-deterministic baseline of the
// paper's evaluation (§5, run there with relaxation factor k=256).
//
// The structure reproduces the two mechanisms that define the k-LSM:
//
//   - a thread-local insertion buffer (the "distributed LSM"): inserts go
//     into a per-handle sorted log and are only merged into the shared
//     component when the local log exceeds its bound, amortising
//     synchronisation over batches;
//   - bounded-staleness consumption (the "spy" operation): DeleteMin serves
//     from a per-handle stash of up to k elements copied out of the shared
//     component in one synchronised step.
//
// Every element a thread may miss is confined to other threads' local
// buffers and stashes, so a DeleteMin returns one of the (P·k + P·B)
// smallest elements — the same bounded-relaxation contract as the k-LSM
// (with B the insert-buffer bound). It is built with locks rather than the
// original's lock-free multi-level merging; the bound above comes from the
// per-handle buffers and stashes, not from how the shared part is merged.
package klsm

import (
	"fmt"
	"sync"

	"powerchoice/internal/pqueue"
)

// Queue is a k-relaxed concurrent priority queue. Construct with New; all
// methods of handles derived from it are safe for concurrent use (one
// handle per goroutine).
type Queue[V any] struct {
	k           int
	insertBound int

	mu     sync.Mutex
	shared *pqueue.DAryHeap[V]

	size atomicInt64
}

// New returns a k-relaxed queue. k must be at least 1; insertBound controls
// how many elements a handle may buffer locally before flushing (the k-LSM
// uses a small power of two; 8 is the default when insertBound <= 0).
func New[V any](k, insertBound int) (*Queue[V], error) {
	if k < 1 {
		return nil, fmt.Errorf("klsm: relaxation k must be >= 1, got %d", k)
	}
	if insertBound <= 0 {
		insertBound = 8
	}
	return &Queue[V]{
		k:           k,
		insertBound: insertBound,
		shared:      pqueue.NewDAryHeap[V](),
	}, nil
}

// K returns the relaxation factor.
func (q *Queue[V]) K() int { return q.k }

// Len returns the number of elements present anywhere in the structure
// (shared component, local buffers, and stashes).
func (q *Queue[V]) Len() int { return int(q.size.Load()) }

// Handle is a per-goroutine accessor owning a local insertion buffer and a
// local stash of spied elements. Handles must not be shared between
// goroutines. Elements in a handle's buffer or stash are invisible to other
// handles until flushed — that invisibility is the k-LSM's semantic
// relaxation.
type Handle[V any] struct {
	q     *Queue[V]
	buf   *pqueue.DAryHeap[V] // local insertion buffer
	stash *pqueue.DAryHeap[V] // local spied elements
}

// Handle returns a new handle for the calling goroutine.
func (q *Queue[V]) Handle() *Handle[V] {
	return &Handle[V]{
		q:     q,
		buf:   pqueue.NewDAryHeap[V](),
		stash: pqueue.NewDAryHeap[V](),
	}
}

// Insert adds an element. It stays in the local buffer until the buffer
// exceeds the insert bound, at which point the whole batch merges into the
// shared component under one lock acquisition.
func (h *Handle[V]) Insert(key uint64, value V) {
	h.q.size.Add(1)
	h.buf.Push(key, value)
	if h.buf.Len() >= h.q.insertBound {
		h.flushLocked()
	}
}

// flushLocked merges the local buffer into the shared component.
func (h *Handle[V]) flushLocked() {
	q := h.q
	q.mu.Lock()
	for {
		it, ok := h.buf.PopMin()
		if !ok {
			break
		}
		q.shared.Push(it.Key, it.Value)
	}
	q.mu.Unlock()
}

// Flush publishes any locally buffered inserts to the shared component.
// Call it when a producer goroutine goes quiescent so consumers can observe
// its elements.
func (h *Handle[V]) Flush() {
	if h.buf.Len() > 0 {
		h.flushLocked()
	}
}

// DeleteMin removes an element that is among the smallest P·(k+B) present,
// where P is the number of handles. It prefers the smaller of the local
// stash head and local buffer head; when both are empty it spies up to k
// elements out of the shared component in one lock acquisition. It returns
// ok=false when the handle can observe no elements (the shared component is
// empty and its own buffer/stash are empty) — other handles' buffers may
// still hold elements; Len reports the global count.
func (h *Handle[V]) DeleteMin() (uint64, V, bool) {
	q := h.q
	for {
		sTop, sOK := h.stash.PeekMin()
		bTop, bOK := h.buf.PeekMin()
		switch {
		case sOK && (!bOK || sTop.Key <= bTop.Key):
			it, _ := h.stash.PopMin()
			q.size.Add(-1)
			return it.Key, it.Value, true
		case bOK:
			it, _ := h.buf.PopMin()
			q.size.Add(-1)
			return it.Key, it.Value, true
		}
		// Local views empty: spy a batch from the shared component.
		q.mu.Lock()
		spied := 0
		for spied < q.k {
			it, ok := q.shared.PopMin()
			if !ok {
				break
			}
			h.stash.Push(it.Key, it.Value)
			spied++
		}
		q.mu.Unlock()
		if spied == 0 {
			var zero V
			return 0, zero, false
		}
	}
}

// Stash returns how many spied elements the handle currently holds; used by
// tests to verify the relaxation bound.
func (h *Handle[V]) Stash() int { return h.stash.Len() }

// Buffered returns how many locally inserted elements have not been
// published yet.
func (h *Handle[V]) Buffered() int { return h.buf.Len() }
