package core

import (
	"math"
	"sort"
	"sync"
	"testing"

	"powerchoice/internal/xrand"
)

func mustNew[V any](t *testing.T, opts ...Option) *MultiQueue[V] {
	t.Helper()
	mq, err := New[V](opts...)
	if err != nil {
		t.Fatal(err)
	}
	return mq
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New[int](WithQueues(-1)); err == nil {
		t.Error("negative queue count accepted")
	}
	if _, err := New[int](WithBeta(-0.1)); err == nil {
		t.Error("negative beta accepted")
	}
	if _, err := New[int](WithBeta(1.5)); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestDefaults(t *testing.T) {
	mq := mustNew[int](t)
	if mq.NumQueues() < 1 {
		t.Errorf("NumQueues = %d", mq.NumQueues())
	}
	if mq.Beta() != 1 {
		t.Errorf("default Beta = %v", mq.Beta())
	}
	if mq.Len() != 0 {
		t.Errorf("empty Len = %d", mq.Len())
	}
}

func TestEmptyDeleteMin(t *testing.T) {
	mq := mustNew[string](t, WithQueues(4))
	if _, _, ok := mq.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty returned ok")
	}
}

func TestSingleQueueExactOrdering(t *testing.T) {
	// One queue means no relaxation at all: pops must be globally sorted.
	mq := mustNew[int](t, WithQueues(1), WithSeed(1))
	keys := []uint64{5, 3, 9, 1, 7, 3}
	for i, k := range keys {
		mq.Insert(k, i)
	}
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		k, _, ok := mq.DeleteMin()
		if !ok || k != w {
			t.Fatalf("pop %d = (%d,%v), want %d", i, k, ok, w)
		}
	}
}

func TestMaxKeyClamped(t *testing.T) {
	mq := mustNew[string](t, WithQueues(2), WithSeed(2))
	mq.Insert(math.MaxUint64, "sentinel-colliding")
	if mq.Len() != 1 {
		t.Fatalf("Len = %d", mq.Len())
	}
	k, v, ok := mq.DeleteMin()
	if !ok || v != "sentinel-colliding" {
		t.Fatalf("DeleteMin = (%d,%q,%v)", k, v, ok)
	}
	if k != math.MaxUint64-1 {
		t.Fatalf("key %d, want clamp to MaxUint64-1", k)
	}
}

func TestSequentialMultisetPreservation(t *testing.T) {
	for _, beta := range []float64{0, 0.5, 1} {
		mq := mustNew[int](t, WithQueues(8), WithBeta(beta), WithSeed(3))
		rng := xrand.NewSource(4)
		const n = 5000
		want := map[uint64]int{}
		for i := 0; i < n; i++ {
			k := rng.Uint64() % 1000
			want[k]++
			mq.Insert(k, i)
		}
		got := map[uint64]int{}
		for i := 0; i < n; i++ {
			k, _, ok := mq.DeleteMin()
			if !ok {
				t.Fatalf("β=%v: drained at %d", beta, i)
			}
			got[k]++
		}
		if _, _, ok := mq.DeleteMin(); ok {
			t.Fatalf("β=%v: extra element", beta)
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("β=%v: key %d count %d, want %d", beta, k, got[k], c)
			}
		}
	}
}

func TestConcurrentMultisetPreservation(t *testing.T) {
	const workers = 8
	const perWorker = 20000
	for _, beta := range []float64{0.5, 1} {
		mq := mustNew[uint64](t, WithQueues(16), WithBeta(beta), WithSeed(6))
		var wg sync.WaitGroup
		// Phase 1: concurrent inserts of globally unique keys.
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := mq.Handle()
				for i := 0; i < perWorker; i++ {
					k := uint64(w*perWorker + i)
					h.Insert(k, k)
				}
			}(w)
		}
		wg.Wait()
		if mq.Len() != workers*perWorker {
			t.Fatalf("β=%v: Len = %d, want %d", beta, mq.Len(), workers*perWorker)
		}
		// Phase 2: concurrent deletes; verify exact multiset recovery.
		results := make([][]uint64, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := mq.Handle()
				var out []uint64
				for {
					k, v, ok := h.DeleteMin()
					if !ok {
						break
					}
					if k != v {
						t.Errorf("key %d carried value %d", k, v)
						return
					}
					out = append(out, k)
				}
				results[w] = out
			}(w)
		}
		wg.Wait()
		seen := make([]bool, workers*perWorker)
		total := 0
		for _, out := range results {
			for _, k := range out {
				if seen[k] {
					t.Fatalf("β=%v: key %d deleted twice", beta, k)
				}
				seen[k] = true
				total++
			}
		}
		if total != workers*perWorker {
			t.Fatalf("β=%v: recovered %d of %d", beta, total, workers*perWorker)
		}
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	// Interleaved inserts and deletes; at the end, drain and check counts.
	const workers = 8
	const ops = 30000
	mq := mustNew[int](t, WithQueues(8), WithBeta(0.75), WithSeed(7))
	var wg sync.WaitGroup
	inserted := make([]int64, workers)
	deleted := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := mq.Handle()
			rng := xrand.NewSource(uint64(1000 + w))
			for i := 0; i < ops; i++ {
				if rng.Float64() < 0.6 {
					h.Insert(rng.Uint64()%1e6, i)
					inserted[w]++
				} else if _, _, ok := h.DeleteMin(); ok {
					deleted[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var ins, del int64
	for w := 0; w < workers; w++ {
		ins += inserted[w]
		del += deleted[w]
	}
	if got := int64(mq.Len()); got != ins-del {
		t.Fatalf("Len = %d, want %d - %d = %d", got, ins, del, ins-del)
	}
	// Drain the remainder.
	var drained int64
	for {
		if _, _, ok := mq.DeleteMin(); !ok {
			break
		}
		drained++
	}
	if drained != ins-del {
		t.Fatalf("drained %d, want %d", drained, ins-del)
	}
}

func TestHandleStats(t *testing.T) {
	mq := mustNew[int](t, WithQueues(4), WithSeed(8))
	h := mq.Handle()
	for i := 0; i < 100; i++ {
		h.Insert(uint64(i), i)
	}
	for i := 0; i < 50; i++ {
		h.DeleteMin()
	}
	s := h.Stats()
	if s.Inserts != 100 || s.Deletes != 50 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestEmptyReturnCountsOneEmptyScan pins the accounting HandleStats.EmptyScans
// documents for an empty structure: the all-empty sample that precedes the
// sweep counts one empty scan per empty return, in both modes and for both
// DeleteMin and DeleteMinBatch.
func TestEmptyReturnCountsOneEmptyScan(t *testing.T) {
	for _, atomic := range []bool{false, true} {
		mq := mustNew[int](t, WithQueues(8), WithAtomic(atomic))
		h := mq.Handle()
		if _, _, ok := h.DeleteMin(); ok {
			t.Fatalf("atomic=%v: DeleteMin on empty returned ok", atomic)
		}
		if got := h.Stats().EmptyScans; got != 1 {
			t.Errorf("atomic=%v: EmptyScans after empty DeleteMin = %d, want 1", atomic, got)
		}
		keys := make([]uint64, 4)
		vals := make([]int, 4)
		if n := h.DeleteMinBatch(keys, vals, 4); n != 0 {
			t.Fatalf("atomic=%v: DeleteMinBatch on empty returned %d", atomic, n)
		}
		if got := h.Stats().EmptyScans; got != 2 {
			t.Errorf("atomic=%v: EmptyScans after empty DeleteMinBatch = %d, want 2", atomic, got)
		}
	}
}

func TestAtomicModeBasic(t *testing.T) {
	mq := mustNew[int](t, WithQueues(4), WithAtomic(true), WithSeed(9))
	for i := 0; i < 1000; i++ {
		mq.Insert(uint64(i), i)
	}
	count := 0
	for {
		_, _, ok := mq.DeleteMin()
		if !ok {
			break
		}
		count++
	}
	if count != 1000 {
		t.Fatalf("atomic mode recovered %d", count)
	}
}

func TestAtomicModeConcurrent(t *testing.T) {
	const workers = 4
	const perWorker = 5000
	mq := mustNew[uint64](t, WithQueues(8), WithAtomic(true), WithSeed(10))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := mq.Handle()
			for i := 0; i < perWorker; i++ {
				h.Insert(uint64(w*perWorker+i), 0)
			}
			for i := 0; i < perWorker; i++ {
				if _, _, ok := h.DeleteMin(); !ok {
					t.Error("unexpected empty")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if mq.Len() != 0 {
		t.Fatalf("Len = %d after balanced ops", mq.Len())
	}
}

// TestRankQualityBounded checks the headline property end to end on the
// concurrent structure driven sequentially: with β=1 and n queues, the mean
// removal rank over a prefilled drain stays O(n).
func TestRankQualityBounded(t *testing.T) {
	const nq = 8
	const m = 20000
	mq := mustNew[int](t, WithQueues(nq), WithBeta(1), WithSeed(11))
	for i := 0; i < m; i++ {
		mq.Insert(uint64(i), i)
	}
	// Offline rank accounting against the set of present keys.
	present := make([]bool, m)
	for i := range present {
		present[i] = true
	}
	var sumRank float64
	// Only measure the first half (prefixed regime).
	for i := 0; i < m/2; i++ {
		k, _, ok := mq.DeleteMin()
		if !ok {
			t.Fatal("drained early")
		}
		rank := 0
		for l := 0; l <= int(k); l++ {
			if present[l] {
				rank++
			}
		}
		present[k] = false
		sumRank += float64(rank)
	}
	mean := sumRank / float64(m/2)
	if mean > 4*nq {
		t.Errorf("mean rank %v exceeds 4n = %d", mean, 4*nq)
	}
}

// TestDistributionalLinearizability drives the Atomic-mode MultiQueue
// single-threaded and compares its removal-rank distribution against the
// sequential process at matched parameters. Appendix C says they coincide;
// we check the mean ranks are statistically close.
func TestDistributionalLinearizability(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	const nq = 8
	const m = 30000
	mq := mustNew[int](t, WithQueues(nq), WithBeta(1), WithAtomic(true), WithSeed(12))
	for i := 0; i < m; i++ {
		mq.Insert(uint64(i), i)
	}
	present := make([]bool, m)
	for i := range present {
		present[i] = true
	}
	counts := make([]int, m)
	var mean float64
	steps := m / 2
	for i := 0; i < steps; i++ {
		k, _, _ := mq.DeleteMin()
		rank := 0
		for l := 0; l <= int(k); l++ {
			if present[l] {
				rank++
			}
		}
		present[k] = false
		counts[rank]++
		mean += float64(rank)
	}
	mean /= float64(steps)
	// The sequential two-choice process at n=8: E[rank] is a small multiple
	// of n; empirically ≈ n·0.9 + 1. Accept a generous band around the value
	// the sequential simulator produces.
	if mean < 2 || mean > 3*nq {
		t.Errorf("atomic-mode mean rank %v outside plausible band for n=%d", mean, nq)
	}
}

func BenchmarkInsertDeleteSequential(b *testing.B) {
	mq, err := New[struct{}](WithQueues(8), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	h := mq.Handle()
	rng := xrand.NewSource(2)
	for i := 0; i < 1024; i++ {
		h.Insert(rng.Uint64(), struct{}{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(rng.Uint64(), struct{}{})
		h.DeleteMin()
	}
}

func BenchmarkInsertDeleteParallel(b *testing.B) {
	mq, err := New[struct{}](WithBeta(0.75), WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	seed := atomicInt64{}
	b.RunParallel(func(pb *testing.PB) {
		h := mq.Handle()
		rng := xrand.NewSource(uint64(seed.Add(1)))
		for i := 0; i < 512; i++ {
			h.Insert(rng.Uint64(), struct{}{})
		}
		for pb.Next() {
			h.Insert(rng.Uint64(), struct{}{})
			h.DeleteMin()
		}
	})
}
