package core

// Hot-path microbenchmarks for the MultiQueue's per-operation cost. They are
// single-threaded on purpose: contention effects are what powerbench
// measures; these isolate the instruction-path cost of one operation
// (single-op vs batched locking) and pin the allocation behaviour via
// -benchmem / b.ReportAllocs.
//
// Workflow (see EXPERIMENTS.md, "Microbenchmark methodology"):
//
//	go test -run '^$' -bench 'BenchmarkHandle' -benchmem -count 10 ./internal/core | tee new.txt
//	benchstat old.txt new.txt

import (
	"fmt"
	"testing"

	"powerchoice/internal/xrand"
)

func newBenchMQ(b *testing.B) *MultiQueue[int32] {
	b.Helper()
	mq, err := New[int32](WithQueues(8), WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	return mq
}

// BenchmarkHandleInsert measures a single uncontended Handle.Insert.
func BenchmarkHandleInsert(b *testing.B) {
	mq := newBenchMQ(b)
	h := mq.Handle()
	rng := xrand.NewSource(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(rng.Uint64()>>1, 0)
	}
}

// BenchmarkHandleDeleteMin measures a single uncontended Handle.DeleteMin
// from a prefilled structure that never runs empty inside the timed region.
func BenchmarkHandleDeleteMin(b *testing.B) {
	mq := newBenchMQ(b)
	h := mq.Handle()
	rng := xrand.NewSource(5)
	for i := 0; i < b.N+64; i++ {
		h.Insert(rng.Uint64()>>1, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.DeleteMin()
	}
}

// BenchmarkHandleMixed measures the steady-state insert+deleteMin pair on a
// prefilled structure — the alternating workload of powerbench throughput.
// Steady state means heap slices have reached their working capacity, so
// allocs/op must be zero (pinned by TestHandleOpsAllocationFree).
func BenchmarkHandleMixed(b *testing.B) {
	mq := newBenchMQ(b)
	h := mq.Handle()
	rng := xrand.NewSource(9)
	for i := 0; i < 4096; i++ {
		h.Insert(rng.Uint64()>>1, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(rng.Uint64()>>1, 0)
		h.DeleteMin()
	}
}

// batchSizes are the bulk-operation sizes the batched benchmarks sweep; 8
// is the k the acceptance comparison against the unbatched single-op
// benchmarks uses (ns/op here is per element, so it is directly comparable
// with the unbatched series).
var batchSizes = []int{4, 8, 16}

// BenchmarkHandleInsertBatch measures per-element insert cost through
// InsertBatch: one lock acquisition and one O(1) top update per k elements.
func BenchmarkHandleInsertBatch(b *testing.B) {
	for _, k := range batchSizes {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			mq := newBenchMQ(b)
			h := mq.Handle()
			rng := xrand.NewSource(3)
			keys := make([]uint64, k)
			vals := make([]int32, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				for j := 0; j < k; j++ {
					keys[j] = rng.Uint64() >> 1
				}
				h.InsertBatch(keys, vals)
			}
		})
	}
}

// BenchmarkHandleDeleteMinBatch measures per-element deletion cost through
// DeleteMinBatch from a prefilled structure.
func BenchmarkHandleDeleteMinBatch(b *testing.B) {
	for _, k := range batchSizes {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			mq := newBenchMQ(b)
			h := mq.Handle()
			rng := xrand.NewSource(5)
			for i := 0; i < b.N+64; i++ {
				h.Insert(rng.Uint64()>>1, 0)
			}
			keys := make([]uint64, k)
			vals := make([]int32, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				if h.DeleteMinBatch(keys, vals, k) == 0 {
					b.Fatal("drained early")
				}
			}
		})
	}
}

// BenchmarkHandleMixedBatch is BenchmarkHandleMixed through the batch
// operations: k inserts then k deletes per round. Comparing its ns/op (per
// element) against BenchmarkHandleMixed is the batching win.
func BenchmarkHandleMixedBatch(b *testing.B) {
	for _, k := range batchSizes {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			mq := newBenchMQ(b)
			h := mq.Handle()
			rng := xrand.NewSource(9)
			for i := 0; i < 4096; i++ {
				h.Insert(rng.Uint64()>>1, 0)
			}
			keys := make([]uint64, k)
			vals := make([]int32, k)
			pkeys := make([]uint64, k)
			pvals := make([]int32, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += k {
				for j := 0; j < k; j++ {
					keys[j] = rng.Uint64() >> 1
				}
				h.InsertBatch(keys, vals)
				popped := 0
				for popped < k {
					n := h.DeleteMinBatch(pkeys, pvals, k-popped)
					if n == 0 {
						b.Fatal("drained early")
					}
					popped += n
				}
			}
		})
	}
}

// BenchmarkTryLockContended pins the TryLock fast-path choice: a single CAS
// rather than the old load+CAS pair. Under contention a leading load is pure
// overhead when it reads 0 (the CAS re-reads the line exclusively anyway),
// and when it reads 1 the caller wanted a held-lock test, not TryLock. The
// sub-benchmarks measure the acquire attempt itself while sibling goroutines
// hammer the same lock word:
//
//	cas:       TryLock()                    — the shipped single-CAS form
//	load+cas:  v.Load() == 0 && TryLock()   — the rejected double-read form
//
// Run with GOMAXPROCS > 1 for the contended regime; at GOMAXPROCS=1 both
// forms degenerate to the uncontended cost and the comparison is flat (see
// EXPERIMENTS.md, "1-core comparability").
func BenchmarkTryLockContended(b *testing.B) {
	run := func(b *testing.B, attempt func(l *queuedLock) bool) {
		var l queuedLock
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if attempt(&l) {
					l.Unlock()
				}
			}
		})
	}
	b.Run("cas", func(b *testing.B) {
		run(b, func(l *queuedLock) bool { return l.TryLock() })
	})
	b.Run("load+cas", func(b *testing.B) {
		run(b, func(l *queuedLock) bool { return l.v.Load() == 0 && l.TryLock() })
	})
}

// BenchmarkHandleDeleteMinBuffered measures the executor-facing buffered
// deletion: one DeleteMinBatch refill per k pops.
func BenchmarkHandleDeleteMinBuffered(b *testing.B) {
	const k = 8
	mq := newBenchMQ(b)
	h := mq.Handle()
	rng := xrand.NewSource(11)
	for i := 0; i < 4096; i++ {
		h.Insert(rng.Uint64()>>1, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, _, ok := h.DeleteMinBuffered(k)
		if !ok {
			b.Fatal("drained early")
		}
		h.Insert(key, 0)
	}
}
