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
		if c := mq.snapshot().queues[i].count; c > 0 {
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

// TestDeleteMinBufferedDrainsBufferFirst: buffered pops must come out of the
// local buffer in order before the shared structure is re-sampled, and the
// stats must attribute them to the buffer.
func TestDeleteMinBufferedDrainsBufferFirst(t *testing.T) {
	mq := mustNew[int](t, WithQueues(1), WithSeed(63))
	h := mq.Handle()
	for i := 0; i < 10; i++ {
		h.Insert(uint64(i), i)
	}
	const k = 4
	var got []uint64
	for i := 0; i < 10; i++ {
		key, _, ok := h.DeleteMinBuffered(k)
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		got = append(got, key)
	}
	// One queue: every batch is the global k smallest, so the full sequence
	// is exactly sorted.
	for i, k := range got {
		if k != uint64(i) {
			t.Fatalf("pop %d = %d, want %d", i, k, i)
		}
	}
	if _, _, ok := h.DeleteMinBuffered(k); ok {
		t.Fatal("pop on drained structure succeeded")
	}
	st := h.Stats()
	// 10 pops in batches of 4: refills of 4,4,2 serve 3,3,1 from the buffer.
	if st.BufferedPops != 7 {
		t.Errorf("BufferedPops = %d, want 7", st.BufferedPops)
	}
	if st.Buffered != 0 {
		t.Errorf("Buffered = %d after drain", st.Buffered)
	}
	if st.Deletes != 10 {
		t.Errorf("Deletes = %d, want 10", st.Deletes)
	}
}

// TestUnbufferedPopsDrainHandleBuffer: elements a DeleteMinBuffered refill
// left in the handle-local buffer are already removed from the shared
// structure, so DeleteMin and DeleteMinBatch must serve them before
// re-sampling the shared queues. Before the fix they were silently stranded
// (and lost) the moment a caller switched back to the unbuffered APIs.
func TestUnbufferedPopsDrainHandleBuffer(t *testing.T) {
	const n = 32
	const k = 8
	t.Run("DeleteMin", func(t *testing.T) {
		mq := mustNew[int](t, WithQueues(1), WithSeed(71))
		h := mq.Handle()
		for i := 0; i < n; i++ {
			h.Insert(uint64(i), i)
		}
		// One buffered pop removes k elements from the shared structure and
		// returns the first; k-1 sit in the handle buffer.
		if _, _, ok := h.DeleteMinBuffered(k); !ok {
			t.Fatal("buffered pop failed")
		}
		if st := h.Stats(); st.Buffered != k-1 {
			t.Fatalf("Buffered = %d, want %d", st.Buffered, k-1)
		}
		got := 1
		for {
			key, _, ok := h.DeleteMin()
			if !ok {
				break
			}
			// One queue: the drain order is globally sorted, so a stranded
			// buffer would show up as a gap in the sequence.
			if key != uint64(got) {
				t.Fatalf("pop %d returned key %d", got, key)
			}
			got++
		}
		if got != n {
			t.Fatalf("recovered %d of %d elements", got, n)
		}
		st := h.Stats()
		if st.Buffered != 0 {
			t.Errorf("Buffered = %d after full drain", st.Buffered)
		}
		if st.Deletes != n {
			t.Errorf("Deletes = %d, want %d (buffered serves must not double-count)", st.Deletes, n)
		}
		if st.BufferedPops != k-1 {
			t.Errorf("BufferedPops = %d, want %d", st.BufferedPops, k-1)
		}
	})
	t.Run("DeleteMinBatch", func(t *testing.T) {
		mq := mustNew[int](t, WithQueues(1), WithSeed(73))
		h := mq.Handle()
		for i := 0; i < n; i++ {
			h.Insert(uint64(i), i)
		}
		if _, _, ok := h.DeleteMinBuffered(k); !ok {
			t.Fatal("buffered pop failed")
		}
		keys := make([]uint64, 3)
		vals := make([]int, 3)
		// The next batch pop must come out of the handle buffer (keys 1..3),
		// not the shared structure (whose minimum is now k).
		if m := h.DeleteMinBatch(keys, vals, 3); m != 3 || keys[0] != 1 || keys[2] != 3 {
			t.Fatalf("batch after buffered = %v (n=%d), want [1 2 3]", keys[:m], m)
		}
		total := 1 + 3
		big := make([]uint64, n)
		bigVals := make([]int, n)
		for {
			m := h.DeleteMinBatch(big, bigVals, n)
			if m == 0 {
				break
			}
			total += m
		}
		if total != n {
			t.Fatalf("recovered %d of %d elements", total, n)
		}
		if st := h.Stats(); st.Buffered != 0 || st.Deletes != n {
			t.Errorf("stats after drain: %+v", st)
		}
	})
}

// TestBatchOpsConcurrent: mixed batch producers and buffered consumers must
// preserve the multiset under concurrency and pass the race detector.
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
			var out []uint64
			for {
				key, val, ok := h.DeleteMinBuffered(k)
				if !ok {
					break
				}
				if key != val {
					t.Errorf("key %d carried value %d", key, val)
					return
				}
				out = append(out, key)
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

// TestBatchStickinessInteraction: a batch operation counts as one op against
// a sticky streak and re-arms it like the single-op paths.
func TestBatchStickinessInteraction(t *testing.T) {
	mq := mustNew[int](t, WithQueues(8), WithStickiness(100), WithSeed(69))
	h := mq.Handle()
	keys := []uint64{1, 2, 3, 4}
	vals := []int{1, 2, 3, 4}
	for b := 0; b < 25; b++ {
		h.InsertBatch(keys, vals)
	}
	nonEmpty := 0
	for i := range mq.snapshot().queues {
		if mq.snapshot().queues[i].count > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Errorf("25 sticky batches spread over %d queues, want 1", nonEmpty)
	}
}
