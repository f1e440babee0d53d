package sched_test

import (
	"testing"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
)

// TestPopBufferPopAllocationFree: PopBuffer.Pop is //powervet:hotpath — both
// its buffered fast path and its k-element refill must allocate nothing in
// steady state (the buffer slices are sized once at construction). The
// refill Insert and the PopBuffer both run on one dedicated Local() view, as
// the executor's workers do, so the MultiQueue's pooled handles (whose
// sync.Pool may drop Puts, and so allocate, under the race detector) stay
// out of the measurement. testing.AllocsPerRun divides as integers, so each
// run pops k times: a refill leaves at most k−1 elements buffered, so every
// run includes one refill, and an allocation per refill reads as 1 alloc/op.
func TestPopBufferPopAllocationFree(t *testing.T) {
	const k = 8
	shared, err := pqadapt.NewSpec(pqadapt.Spec{Impl: pqadapt.ImplMultiQueue, Seed: 91, Queues: 8})
	if err != nil {
		t.Fatal(err)
	}
	q := shared.(sched.WorkerLocal[int32]).Local()
	for i := 0; i < 4096; i++ {
		q.Insert(uint64(i*2654435761)%1_000_000, int32(i))
	}
	pb := sched.NewPopBuffer[int32](q, k)
	// Warm one refill so the first measured Pop starts mid-buffer.
	if _, _, ok := pb.Pop(); !ok {
		t.Fatal("warm-up pop failed")
	}
	next := uint64(3)
	if avg := testing.AllocsPerRun(200, func() {
		for j := 0; j < k; j++ {
			key, val, ok := pb.Pop()
			if !ok {
				t.Fatal("pop drained unexpectedly")
			}
			next = next*2654435761 + key
			q.Insert(next%1_000_000, val)
		}
	}); avg != 0 {
		t.Errorf("PopBuffer.Pop allocates %.2f objects per %d pops in steady state, want 0", avg, k)
	}
}
