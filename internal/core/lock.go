package core

import (
	"sync/atomic"

	"powerchoice/internal/backoff"
)

// Aliases keep the atomic field types concise at use sites.
type (
	atomicInt64  = atomic.Int64
	atomicUint64 = atomic.Uint64
)

// queuedLock is the per-queue lock: one test-and-set word.
//
// The MultiQueue algorithm prefers moving to a different random queue over
// waiting, so TryLock is the primary operation — a single CAS on the lock
// word, nothing else (the earlier test-and-set lock issued a separate Load
// before the CAS, paying two accesses on the uncontended fast path;
// BenchmarkTryLockContended pins the single-CAS choice). Unlock is one plain
// store.
//
// Lock is the blocking path for a caller that must wait on one particular
// queue — only Len, a cold path. It spins on the word with the shared
// backoff, which yields to the scheduler after a few failures, so a waiter
// cannot starve the holder even at GOMAXPROCS=1. Waiters are not ordered;
// Len needs no FIFO hand-off.
type queuedLock struct {
	// v is the lock word: 0 free, 1 held.
	v atomic.Uint32
}

// TryLock attempts to acquire the lock without blocking: one CAS on the
// lock word, win or move on.
//
//powervet:hotpath
func (l *queuedLock) TryLock() bool {
	return l.v.CompareAndSwap(0, 1)
}

// Lock acquires the lock, waiting as long as it takes: a CAS, and while
// that fails a load-only wait for the word to clear, backing off between
// loads so the holder gets the processor.
//
//powervet:hotpath
func (l *queuedLock) Lock() {
	var bo backoff.Spinner
	for !l.v.CompareAndSwap(0, 1) {
		for l.v.Load() != 0 {
			bo.Spin()
		}
	}
}

// Unlock releases the lock: one plain store. Waiters in Lock notice on
// their next load of the word.
//
//powervet:hotpath
func (l *queuedLock) Unlock() {
	l.v.Store(0)
}
