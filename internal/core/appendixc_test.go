package core

import "testing"

// TestAppendixCStalledLockHolderDegradesRank mechanises the Appendix C
// counter-example: a process that acquires queue locks and then hangs. With
// the paper's try-lock design other processes keep completing deletions
// (no blocking), but none can serve the stalled queues, so rank quality
// degrades without bound while the locks are held — exactly why the simple
// locking strategy is not distributionally linearizable.
func TestAppendixCStalledLockHolderDegradesRank(t *testing.T) {
	const nq = 4
	const m = 20000

	meanRank := func(stallTwoQueues bool) float64 {
		mq := mustNew[int](t, WithQueues(nq), WithBeta(1), WithSeed(21))
		for i := 0; i < m; i++ {
			mq.Insert(uint64(i), i)
		}
		if stallTwoQueues {
			// Simulate Appendix C's hung process holding two queue locks.
			mq.queues[0].lock.Lock()
			mq.queues[1].lock.Lock()
			defer mq.queues[0].lock.Unlock()
			defer mq.queues[1].lock.Unlock()
		}
		present := make([]bool, m)
		for i := range present {
			present[i] = true
		}
		h := mq.Handle()
		var sum float64
		const steps = m / 4
		for i := 0; i < steps; i++ {
			k, _, ok := h.DeleteMin()
			if !ok {
				t.Fatal("DeleteMin blocked or reported empty despite held locks")
			}
			rank := 0
			for l := 0; l <= int(k); l++ {
				if present[l] {
					rank++
				}
			}
			present[k] = false
			sum += float64(rank)
		}
		return sum / steps
	}

	healthy := meanRank(false)
	stalled := meanRank(true)
	// With half the queues frozen, roughly half of all smaller elements are
	// unreachable: the mean rank must blow up by an order of magnitude.
	if stalled < 10*healthy {
		t.Errorf("stalled-lock mean rank %v not far above healthy %v", stalled, healthy)
	}
	// Yet progress was never lost — the loop above completed m/4 deletions
	// with two of four queues locked (non-blocking property of try-locks).
}

// TestAppendixCAtomicModeMatchesSequentialMean compares the atomic
// (distributionally linearizable) mode against the sequential process at
// matched parameters: the removal-rank means must agree closely, which is
// the operational content of Definition 2.
func TestAppendixCAtomicModeMatchesSequentialMean(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const nq = 8
	const m = 30000

	// Atomic-mode MultiQueue, single-threaded drive.
	mq := mustNew[int](t, WithQueues(nq), WithBeta(1), WithAtomic(true), WithSeed(22))
	for i := 0; i < m; i++ {
		mq.Insert(uint64(i), i)
	}
	present := make([]bool, m)
	for i := range present {
		present[i] = true
	}
	var mean float64
	const steps = m / 2
	for i := 0; i < steps; i++ {
		k, _, _ := mq.DeleteMin()
		rank := 0
		for l := 0; l <= int(k); l++ {
			if present[l] {
				rank++
			}
		}
		present[k] = false
		mean += float64(rank)
	}
	mean /= steps

	// The sequential process's mean rank at n=8, β=1 is ≈ 0.8·n (see the
	// seqproc experiments); assert agreement within a factor of two.
	lo, hi := 0.4*float64(nq), 1.6*float64(nq)
	if mean < lo || mean > hi {
		t.Errorf("atomic-mode mean rank %v outside sequential band [%v, %v]", mean, lo, hi)
	}
}
