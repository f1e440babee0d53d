// Package powerchoice is a Go implementation of the relaxed concurrent
// priority queue from "The Power of Choice in Priority Scheduling"
// (Alistarh, Kopinsky, Li, Nadiradze — PODC 2017): the (1+β) MultiQueue.
//
// A MultiQueue spreads elements over n = c·P sequential heaps, each behind a
// try-lock. DeleteMin flips a β-biased coin: with probability β it samples
// two random queues and pops from the one with the smaller cached top, and
// with probability 1−β it pops from a single random queue. The paper proves
// that the rank of the removed element — its position among all present
// elements — stays O(n/β²) in expectation and O(n·log n/β) in the worst
// case, at every point in time, and shows the β < 1 variants beat the
// original MultiQueue by up to 20% in throughput.
//
// This package is a thin facade over internal/core for downstream use;
// the repository's experiments and benchmarks exercise the internals
// directly. See README.md for the repository tour and EXPERIMENTS.md for
// the reproduction of the paper's figures.
package powerchoice

import "powerchoice/internal/core"

// MultiQueue is a relaxed concurrent priority queue over uint64 keys
// (smaller key = higher priority) carrying values of type V. All methods
// are safe for concurrent use; hot paths should use per-goroutine handles
// (see NewHandle).
type MultiQueue[V any] struct {
	inner *core.MultiQueue[V]
}

// Option configures a MultiQueue.
type Option = core.Option

// Re-exported options. See the corresponding internal/core documentation.
var (
	// WithQueues sets the internal queue count explicitly.
	WithQueues = core.WithQueues
	// WithQueueFactor sets queues = factor × GOMAXPROCS (default 2).
	WithQueueFactor = core.WithQueueFactor
	// WithBeta sets the two-choice probability β (default 1).
	WithBeta = core.WithBeta
	// WithSeed fixes the random seed.
	WithSeed = core.WithSeed
	// WithAtomic enables the distributionally linearizable mode.
	WithAtomic = core.WithAtomic
)

// New constructs a MultiQueue.
func New[V any](opts ...Option) (*MultiQueue[V], error) {
	inner, err := core.New[V](opts...)
	if err != nil {
		return nil, err
	}
	return &MultiQueue[V]{inner: inner}, nil
}

// Insert adds an element.
func (q *MultiQueue[V]) Insert(key uint64, value V) { q.inner.Insert(key, value) }

// DeleteMin removes an element of relaxed minimum priority. It returns
// ok=false when a sweep of every internal queue finds them all empty.
// Emptiness is relaxed: an insert that has not yet taken its queue lock can
// be missed, and a DeleteMin racing a Resize can report empty once, for
// example while a drain batch is between queues.
func (q *MultiQueue[V]) DeleteMin() (key uint64, value V, ok bool) {
	return q.inner.DeleteMin()
}

// Len returns the number of stored elements. It reads the internal queues
// one at a time, so under concurrent operations the count is approximate
// (an insert that has not yet taken its queue lock is not counted); it is
// exact when no operation is in flight.
func (q *MultiQueue[V]) Len() int { return q.inner.Len() }

// NumQueues returns the internal queue count n of the live topology (it
// tracks Resize).
func (q *MultiQueue[V]) NumQueues() int { return q.inner.NumQueues() }

// Resize reconfigures the internal topology online to the given queue
// count: operations keep running while the queue set grows or shrinks,
// retired queues drain their elements into survivors exactly once, and
// handles adopt the new topology on their next operation. The queue count
// must stay at or above Config().Choices, the two queues a choice-deletion
// samples (one on a structure built with fewer than three queues).
func (q *MultiQueue[V]) Resize(queues int) error { return q.inner.Resize(queues) }

// Epoch returns the live topology version: 0 at construction, +1 per
// completed Resize.
func (q *MultiQueue[V]) Epoch() uint64 { return q.inner.Epoch() }

// Resizes returns the number of completed Resize calls.
func (q *MultiQueue[V]) Resizes() int64 { return q.inner.Resizes() }

// Config reports the fully resolved configuration — including the queue
// count actually derived on this machine — so callers can log what ran.
type Config = core.Config

// Config returns the resolved configuration.
func (q *MultiQueue[V]) Config() Config { return q.inner.Config() }

// Beta returns the configured two-choice probability.
func (q *MultiQueue[V]) Beta() float64 { return q.inner.Beta() }

// Handle is a per-goroutine accessor with a private random stream; use one
// Handle per worker goroutine on hot paths.
type Handle[V any] struct {
	inner *core.Handle[V]
}

// NewHandle returns a dedicated handle for the calling goroutine.
func (q *MultiQueue[V]) NewHandle() *Handle[V] {
	return &Handle[V]{inner: q.inner.Handle()}
}

// Insert adds an element through the handle.
func (h *Handle[V]) Insert(key uint64, value V) { h.inner.Insert(key, value) }

// DeleteMin removes an element of relaxed minimum priority through the
// handle.
func (h *Handle[V]) DeleteMin() (key uint64, value V, ok bool) {
	return h.inner.DeleteMin()
}

// InsertBatch adds len(keys) elements under a single internal lock
// acquisition — the fast path for producers that generate work in groups.
// keys and vals must have equal length (the call panics otherwise). The
// whole batch lands on one internal queue; rank-wise that is equivalent to
// an insert streak of length len(keys).
func (h *Handle[V]) InsertBatch(keys []uint64, vals []V) {
	h.inner.InsertBatch(keys, vals)
}

// DeleteMinBatch removes up to k elements under a single lock acquisition,
// storing them in ascending key order into keys/vals and returning the
// number removed (0 = a sweep found every internal queue empty, with the
// same relaxed emptiness as DeleteMin). k ≤ 0 means the full slice
// length. The batch is one internal queue's k smallest, so each run is
// sorted but carries the documented extra rank relaxation of batching.
func (h *Handle[V]) DeleteMinBatch(keys []uint64, vals []V, k int) int {
	return h.inner.DeleteMinBatch(keys, vals, k)
}

// HandleStats reports a handle's operation counters: completed inserts and
// deletes, try-lock failures and empty scans.
type HandleStats = core.HandleStats

// Stats returns the handle's operation counters.
func (h *Handle[V]) Stats() HandleStats { return h.inner.Stats() }
