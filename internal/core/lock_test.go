package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestQueuedLockMutualExclusion drives the lock from both of its acquisition
// paths at once — blocking Lock callers and TryLock callers that fall back
// to Lock — and checks a plain (unsynchronised) counter under it. The race
// detector pins mutual exclusion directly; the final count pins that no
// acquisition was lost or doubled.
func TestQueuedLockMutualExclusion(t *testing.T) {
	const workers = 8
	const perWorker = 5000
	var l queuedLock
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w%2 == 0 {
					l.Lock()
				} else if !l.TryLock() {
					// One relaxed attempt, then the blocking path.
					l.Lock()
				}
				counter++
				l.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if counter != workers*perWorker {
		t.Fatalf("counter = %d, want %d (lost or doubled acquisitions)", counter, workers*perWorker)
	}
}

// TestQueuedLockQueuedHandoff serialises several Lock waiters behind one
// holder: every waiter must eventually acquire (liveness of the
// spin-and-yield wait, which at GOMAXPROCS=1 depends on the backoff yielding
// to the holder), and each release must admit at most one waiter into the
// critical section. The holder yields until every waiter has started, so
// each one reaches Lock while the word is held, on one P as on several.
func TestQueuedLockQueuedHandoff(t *testing.T) {
	const waiters = 6
	var l queuedLock
	if !l.TryLock() {
		t.Fatal("TryLock failed on a fresh lock")
	}
	inside := 0
	var started atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Add(1)
			l.Lock()
			inside++
			l.Unlock()
		}()
	}
	for started.Load() < waiters {
		runtime.Gosched()
	}
	l.Unlock()
	wg.Wait()
	if inside != waiters {
		t.Fatalf("inside = %d, want %d", inside, waiters)
	}
}

// TestQueuedLockAllocationFree: both acquisition paths are allocation-free —
// the blocking path keeps its backoff state on the stack, the relaxed path is
// a single CAS.
func TestQueuedLockAllocationFree(t *testing.T) {
	var l queuedLock
	assertZeroAllocs(t, "Lock/Unlock", func() {
		l.Lock()
		l.Unlock()
	})
	assertZeroAllocs(t, "TryLock/Unlock", func() {
		if !l.TryLock() {
			t.Fatal("TryLock failed single-threaded")
		}
		l.Unlock()
	})
}
