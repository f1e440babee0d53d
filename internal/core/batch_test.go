package core

import (
	"sort"
	"sync"
	"testing"

	"powerchoice/internal/xrand"
)

// TestInsertBatchMultisetPreservation: batch inserts must land every element
// exactly once.
func TestInsertBatchMultisetPreservation(t *testing.T) {
	mq := mustNew[int](t, WithQueues(8), WithSeed(51))
	h := mq.Handle()
	const batches = 100
	const k = 16
	keys := make([]uint64, k)
	vals := make([]int, k)
	want := map[uint64]int{}
	rng := xrand.NewSource(52)
	for b := 0; b < batches; b++ {
		for i := range keys {
			keys[i] = rng.Uint64() % 500
			vals[i] = b*k + i
			want[keys[i]]++
		}
		h.InsertBatch(keys, vals)
	}
	if got := mq.Len(); got != batches*k {
		t.Fatalf("Len = %d, want %d", got, batches*k)
	}
	got := map[uint64]int{}
	for {
		key, _, ok := h.DeleteMin()
		if !ok {
			break
		}
		got[key]++
	}
	for key, c := range want {
		if got[key] != c {
			t.Fatalf("key %d count %d, want %d", key, got[key], c)
		}
	}
}

// TestInsertBatchSingleQueue: one batch must occupy exactly one queue (one
// lock acquisition), and the batch's minimum must become that queue's cached
// top without any PeekMin.
func TestInsertBatchSingleQueue(t *testing.T) {
	mq := mustNew[int](t, WithQueues(8), WithSeed(53))
	h := mq.Handle()
	h.InsertBatch([]uint64{9, 3, 7, 5}, []int{0, 1, 2, 3})
	nonEmpty := -1
	for i := range mq.snapshot().queues {
		if c := mq.snapshot().queues[i].dary.Len(); c > 0 {
			if nonEmpty >= 0 {
				t.Fatalf("batch spread over queues %d and %d", nonEmpty, i)
			}
			if c != 4 {
				t.Fatalf("queue %d holds %d of 4", i, c)
			}
			if top := mq.snapshot().queues[i].top.Load(); top != 3 {
				t.Fatalf("cached top %d, want batch min 3", top)
			}
			nonEmpty = i
		}
	}
	if nonEmpty < 0 {
		t.Fatal("batch landed nowhere")
	}
}

// TestInsertBatchClampsSentinel: the empty-sentinel key is clamped exactly
// like Insert's.
func TestInsertBatchClampsSentinel(t *testing.T) {
	mq := mustNew[string](t, WithQueues(2), WithSeed(55))
	h := mq.Handle()
	h.InsertBatch([]uint64{emptyTop}, []string{"s"})
	k, v, ok := h.DeleteMin()
	if !ok || v != "s" || k != emptyTop-1 {
		t.Fatalf("DeleteMin = (%d,%q,%v), want clamped sentinel", k, v, ok)
	}
}

// TestInsertBatchLengthMismatchPanics: mismatched slices are a programming
// error.
func TestInsertBatchLengthMismatchPanics(t *testing.T) {
	mq := mustNew[int](t, WithQueues(2), WithSeed(57))
	h := mq.Handle()
	defer func() {
		if recover() == nil {
			t.Error("no panic on keys/vals length mismatch")
		}
	}()
	h.InsertBatch([]uint64{1, 2}, []int{1})
}

// TestDeleteMinBatchSortedAndExact: a batch pop returns ascending keys, and
// batch push/pop round-trips the exact multiset.
func TestDeleteMinBatchSortedAndExact(t *testing.T) {
	mq := mustNew[int](t, WithQueues(4), WithSeed(59))
	h := mq.Handle()
	const n = 1000
	rng := xrand.NewSource(60)
	want := map[uint64]int{}
	for i := 0; i < n; i++ {
		k := rng.Uint64() % 300
		want[k]++
		h.Insert(k, i)
	}
	keys := make([]uint64, 16)
	vals := make([]int, 16)
	got := map[uint64]int{}
	total := 0
	for {
		n := h.DeleteMinBatch(keys, vals, 16)
		if n == 0 {
			break
		}
		if !sort.SliceIsSorted(keys[:n], func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Fatalf("batch not ascending: %v", keys[:n])
		}
		for _, k := range keys[:n] {
			got[k]++
		}
		total += n
	}
	if total != n {
		t.Fatalf("recovered %d of %d", total, n)
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("key %d count %d, want %d", k, got[k], c)
		}
	}
}

// TestDeleteMinBatchEmptyAndClamping: empty structure returns 0; k is
// clamped to the slices.
func TestDeleteMinBatchEmptyAndClamping(t *testing.T) {
	mq := mustNew[int](t, WithQueues(4), WithSeed(61))
	h := mq.Handle()
	keys := make([]uint64, 8)
	vals := make([]int, 8)
	if n := h.DeleteMinBatch(keys, vals, 4); n != 0 {
		t.Fatalf("empty batch pop returned %d", n)
	}
	for i := 0; i < 20; i++ {
		h.Insert(uint64(i), i)
	}
	if n := h.DeleteMinBatch(keys, vals[:3], 0); n > 3 {
		t.Fatalf("k=0 popped %d > min slice len 3", n)
	}
	if n := h.DeleteMinBatch(keys, vals, 100); n > 8 {
		t.Fatalf("k=100 popped %d > slice len 8", n)
	}
}

// TestBatchOpsConcurrent: concurrent batch producers and batch consumers
// must preserve the multiset and pass the race detector.
func TestBatchOpsConcurrent(t *testing.T) {
	const workers = 4
	const batches = 500
	const k = 8
	mq := mustNew[uint64](t, WithQueues(8), WithSeed(65))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := mq.Handle()
			keys := make([]uint64, k)
			vals := make([]uint64, k)
			for b := 0; b < batches; b++ {
				for i := range keys {
					keys[i] = uint64(w*batches*k + b*k + i)
					vals[i] = keys[i]
				}
				h.InsertBatch(keys, vals)
			}
		}(w)
	}
	wg.Wait()
	if got := mq.Len(); got != workers*batches*k {
		t.Fatalf("Len = %d, want %d", got, workers*batches*k)
	}
	results := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := mq.Handle()
			keys := make([]uint64, k)
			vals := make([]uint64, k)
			var out []uint64
			for {
				n := h.DeleteMinBatch(keys, vals, k)
				if n == 0 {
					break
				}
				for i, key := range keys[:n] {
					if key != vals[i] {
						t.Errorf("key %d carried value %d", key, vals[i])
						return
					}
				}
				out = append(out, keys[:n]...)
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	seen := make([]bool, workers*batches*k)
	total := 0
	for _, out := range results {
		for _, k := range out {
			if seen[k] {
				t.Fatalf("key %d deleted twice", k)
			}
			seen[k] = true
			total++
		}
	}
	if total != workers*batches*k {
		t.Fatalf("recovered %d of %d", total, workers*batches*k)
	}
}

// TestBatchOpsAtomicMode: the Appendix C global-lock mode must support the
// batch operations too (the rank harness uses it as the reference).
func TestBatchOpsAtomicMode(t *testing.T) {
	mq := mustNew[int](t, WithQueues(4), WithAtomic(true), WithSeed(67))
	h := mq.Handle()
	keys := make([]uint64, 8)
	vals := make([]int, 8)
	for b := 0; b < 50; b++ {
		for i := range keys {
			keys[i] = uint64(b*8 + i)
			vals[i] = b*8 + i
		}
		h.InsertBatch(keys, vals)
	}
	total := 0
	for {
		n := h.DeleteMinBatch(keys, vals, 8)
		if n == 0 {
			break
		}
		total += n
	}
	if total != 400 {
		t.Fatalf("atomic mode recovered %d of 400", total)
	}
}
