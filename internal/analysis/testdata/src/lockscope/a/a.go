// Package a exercises the lockscope analyzer on a stub of internal/core's
// spinLock: leaks, double unlocks, branch-dependent lock state, TryLock
// polarity (if and tagless-switch forms), blocking while held, nested
// acquisition, //powervet:locks acquirer contracts, and the caller-side
// conditional-hold protocol.
package a

import (
	"sync/atomic"
	"time"
)

type spinLock struct{ v atomic.Uint32 }

// TryLock, Lock, Unlock make spinLock structurally a lock; lockscope
// exempts the primitive's own methods.
func (l *spinLock) TryLock() bool { return l.v.CompareAndSwap(0, 1) }

func (l *spinLock) Lock() {
	for !l.TryLock() {
	}
}

func (l *spinLock) Unlock() { l.v.Store(0) }

type queue struct {
	lock  spinLock
	count atomic.Int64
}

func work() {}

func leak(q *queue) { // want "leak: q.lock may still be held at function exit"
	q.lock.Lock()
	work()
}

func doubleUnlock(q *queue) {
	q.lock.Lock()
	q.lock.Unlock()
	q.lock.Unlock() // want "unlock of q.lock, which is not held on this path"
}

func branchy(q *queue, b bool) {
	q.lock.Lock()
	if b { // want "q.lock is held on some control-flow paths but not others"
		q.lock.Unlock()
	}
}

func polarity(q *queue) { // want "polarity: q.lock may still be held at function exit"
	if !q.lock.TryLock() {
		return
	}
	work() // acquired, never released
}

func blocksOnChannel(q *queue, ch chan int) {
	q.lock.Lock()
	<-ch // want "channel receive while q.lock is held"
	q.lock.Unlock()
}

func sleepsWhileHeld(q *queue) {
	q.lock.Lock()
	time.Sleep(time.Millisecond) // want "blocks or yields while q.lock is held"
	q.lock.Unlock()
}

func nested(q1, q2 *queue) {
	q1.lock.Lock()
	q2.lock.Lock() // want "nested lock acquisition"
	q2.lock.Unlock()
	q1.lock.Unlock()
}

// Legal shapes: TryLock-guarded branch, defer, loops, tagless TryLock switch.

func guarded(q *queue) {
	if q.lock.TryLock() {
		work()
		q.lock.Unlock()
	}
}

func deferred(q *queue) {
	q.lock.Lock()
	defer q.lock.Unlock()
	work()
}

func retryLoop(qs []*queue) {
	for i := range qs {
		if qs[i].lock.TryLock() {
			work()
			qs[i].lock.Unlock()
		}
	}
}

// stickySwitch is a tagless switch whose first case try-locks: reaching any
// case after `case !q.lock.TryLock():` implies the lock was acquired.
func stickySwitch(q *queue) {
	switch {
	case !q.lock.TryLock():
		work()
	case q.count.Load() > 0:
		q.lock.Unlock()
	default:
		q.lock.Unlock()
	}
}

// Acquirer contract: a //powervet:locks function returns with the lock held
// (nil result = not held); callers must nil-check and release.

//powervet:locks result.lock
func acquire(qs []*queue) *queue {
	for i := range qs {
		if qs[i].lock.TryLock() {
			return qs[i]
		}
	}
	return nil
}

//powervet:locks result.lock
func brokenAcquire(q *queue) *queue {
	return q // want "promises the lock is held at non-nil return"
}

func useAcquire(qs []*queue) {
	q := acquire(qs)
	if q == nil {
		return
	}
	work()
	q.lock.Unlock()
}

func forgetRelease(qs []*queue) { // want "q.lock may still be held at function exit"
	q := acquire(qs)
	if q == nil {
		return
	}
	work()
	_ = q
}

func discardResult(qs []*queue) {
	acquire(qs) // want "returns with result.lock held.*is discarded"
}

// Releaser contract: a //powervet:unlocks method runs with its receiver's
// lock held on entry — and must release it on every path — and calling it
// releases the callee receiver's lock in the caller, like a direct Unlock.

//powervet:unlocks recv.lock
func (q *queue) unlock() {
	work() // e.g. drain a publication ring under the lock
	q.lock.Unlock()
}

//powervet:unlocks recv.lock
func (q *queue) brokenUnlock() { // want "brokenUnlock: q.lock may still be held at function exit"
	work() // never releases the lock the contract says it holds
}

//powervet:unlocks recv.lock
func (q *queue) branchyUnlock(b bool) {
	if b { // want "q.lock is held on some control-flow paths but not others"
		q.lock.Unlock()
	}
}

func useReleaser(q *queue) {
	if q.lock.TryLock() {
		work()
		q.unlock()
	}
}

func releaserOnAcquired(qs []*queue) {
	q := acquire(qs)
	if q == nil {
		return
	}
	work()
	q.unlock()
}

func badReleaserCall(q *queue) {
	q.unlock() // want "releases q.lock, which is not held on this path"
}
