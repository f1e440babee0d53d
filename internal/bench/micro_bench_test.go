package bench

// Per-implementation single-op microbenchmarks over the pqadapt line-up:
// the adapter-level cost of Insert, DeleteMin, and the alternating pair,
// single-threaded and uncontended. Contended, multi-thread throughput is
// powerbench's job; these isolate instruction-path cost and allocation
// behaviour per implementation.

import (
	"testing"

	"powerchoice/internal/graph"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/xrand"
)

// microView returns the per-goroutine view a worker loop would use.
func microView(b *testing.B, impl pqadapt.Impl) graph.ConcurrentPQ {
	b.Helper()
	q, err := pqadapt.NewSpec(pqadapt.Spec{Impl: impl, Queues: 8, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	view := graph.ConcurrentPQ(q)
	if wl, ok := q.(graph.WorkerLocal); ok {
		view = wl.Local()
	}
	return view
}

func BenchmarkImplInsert(b *testing.B) {
	for _, impl := range pqadapt.Impls() {
		b.Run(string(impl), func(b *testing.B) {
			view := microView(b, impl)
			rng := xrand.NewSource(3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view.Insert(rng.Uint64()>>1, 0)
			}
		})
	}
}

// BenchmarkImplDeleteMin pops from a structure prefilled with 4,096
// elements and topped up by 1,024 with the timer stopped after every 1,024
// pops, so its depth stays within [3072, 4096] whatever b.N the framework
// picks, as in core's deletion benchmarks.
func BenchmarkImplDeleteMin(b *testing.B) {
	const depth, block = 4096, 1024
	for _, impl := range pqadapt.Impls() {
		b.Run(string(impl), func(b *testing.B) {
			view := microView(b, impl)
			rng := xrand.NewSource(5)
			fill := func(n int) {
				for ; n > 0; n-- {
					view.Insert(rng.Uint64()>>1, 0)
				}
			}
			fill(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%block == 0 {
					b.StopTimer()
					fill(block)
					b.StartTimer()
				}
				if _, _, ok := view.DeleteMin(); !ok {
					b.Fatal("drained early")
				}
			}
		})
	}
}

func BenchmarkImplMixed(b *testing.B) {
	for _, impl := range pqadapt.Impls() {
		b.Run(string(impl), func(b *testing.B) {
			view := microView(b, impl)
			rng := xrand.NewSource(9)
			for i := 0; i < 4096; i++ {
				view.Insert(rng.Uint64()>>1, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view.Insert(rng.Uint64()>>1, 0)
				view.DeleteMin()
			}
		})
	}
}
