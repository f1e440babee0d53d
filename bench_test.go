// Benchmarks regenerating every figure of the paper's evaluation (§5) plus
// the theory validations and the design ablations indexed in DESIGN.md.
//
// Figure benchmarks report the paper's metric via b.ReportMetric:
//
//	BenchmarkFigure1Throughput  — Mops/s per implementation and thread count
//	BenchmarkFigure2MeanRank    — mean removal rank per β (8 queues)
//	BenchmarkFigure3SSSP        — parallel SSSP wall time per implementation
//
// Shapes, not absolute numbers, are the reproduction target (see
// EXPERIMENTS.md): which implementation wins, by what factor, and where the
// crossovers fall.
package powerchoice_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"powerchoice/internal/bench"
	"powerchoice/internal/core"
	"powerchoice/internal/graph"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/seqproc"
	"powerchoice/internal/xrand"
)

// threadCounts sweeps 1..GOMAXPROCS in powers of two.
func threadCounts() []int {
	var out []int
	for t := 1; t <= runtime.GOMAXPROCS(0); t *= 2 {
		out = append(out, t)
	}
	return out
}

// runPairs drives `threads` workers through b.N insert+delete pairs total on
// the given queue and reports million-operations-per-second.
func runPairs(b *testing.B, q pqadapt.Queue, threads int) {
	b.Helper()
	per := b.N/threads + 1
	sh := xrand.NewSharded(xrand.Tag(uint64(b.N), "bench.figure1.pairs"))
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := graph.ConcurrentPQ(q)
			if wl, ok := q.(graph.WorkerLocal); ok {
				view = wl.Local()
			}
			rng := sh.Source(w)
			for i := 0; i < per; i++ {
				view.Insert(rng.Uint64()>>1, 0)
				view.DeleteMin()
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	ops := float64(2 * per * threads)
	b.ReportMetric(ops/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkFigure1Throughput regenerates Figure 1: throughput of the
// benchmark line-up on alternating insert/deleteMin, swept over threads.
func BenchmarkFigure1Throughput(b *testing.B) {
	for _, impl := range pqadapt.Impls() {
		for _, th := range threadCounts() {
			b.Run(fmt.Sprintf("%s/threads=%d", impl, th), func(b *testing.B) {
				q, err := pqadapt.New(impl, 7)
				if err != nil {
					b.Fatal(err)
				}
				rng := xrand.NewSource(1)
				for i := 0; i < 1<<16; i++ {
					q.Insert(rng.Uint64()>>1, 0)
				}
				runPairs(b, q, th)
			})
		}
	}
}

// BenchmarkFigure2MeanRank regenerates Figure 2: the mean removal rank of
// the (1+β) MultiQueue at 8 queues, swept over β. The rank metric is
// reported as "rank" (lower is better; the paper plots it log-scale).
func BenchmarkFigure2MeanRank(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	for _, beta := range []float64{0, 0.25, 0.5, 0.75, 1} {
		b.Run(fmt.Sprintf("beta=%v", beta), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res, err := bench.RankQuality(bench.RankSpec{
					Beta:         beta,
					Queues:       8,
					Threads:      threads,
					Prefill:      1 << 15,
					OpsPerThread: 1 << 12,
					Seed:         uint64(9 + i),
				})
				if err != nil {
					b.Fatal(err)
				}
				mean = res.Mean
			}
			b.ReportMetric(mean, "rank")
		})
	}
}

// figure3Graph caches the SSSP input graph across sub-benchmarks.
var figure3Graph = sync.OnceValues(func() (*graph.Graph, error) {
	return graph.RoadNetwork(250, 250, 0.15, 3)
})

// BenchmarkFigure3SSSP regenerates Figure 3: parallel SSSP running time on
// the road-network surrogate, per implementation and thread count.
func BenchmarkFigure3SSSP(b *testing.B) {
	g, err := figure3Graph()
	if err != nil {
		b.Fatal(err)
	}
	impls := []pqadapt.Impl{
		pqadapt.ImplOneBeta50, pqadapt.ImplOneBeta75, pqadapt.ImplMultiQueue,
		pqadapt.ImplSkipList, pqadapt.ImplKLSM,
	}
	for _, impl := range impls {
		for _, th := range threadCounts() {
			b.Run(fmt.Sprintf("%s/threads=%d", impl, th), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q, err := pqadapt.New(impl, uint64(13+i))
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := graph.ParallelSSSP(g, 0, q, th); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTheorem1RankBounds runs the sequential (1+β) process and reports
// the stationary average rank normalised by n (Theorem 1 predicts a
// β-dependent constant).
func BenchmarkTheorem1RankBounds(b *testing.B) {
	for _, beta := range []float64{0.5, 1} {
		b.Run(fmt.Sprintf("beta=%v", beta), func(b *testing.B) {
			const n = 64
			var norm float64
			for i := 0; i < b.N; i++ {
				series, err := seqproc.Run(seqproc.RunSpec{
					Cfg:         seqproc.Config{N: n, Beta: beta, Seed: uint64(i)},
					Prefill:     n * 64,
					Steps:       n * 256,
					SampleEvery: n * 64,
					Reinsert:    true,
				})
				if err != nil {
					b.Fatal(err)
				}
				norm = series.Overall.Mean() / n
			}
			b.ReportMetric(norm, "rank/n")
		})
	}
}

// BenchmarkTheorem3Potential samples the exponential-process potential and
// reports max Γ(t)/n (Theorem 3 predicts a constant bound).
func BenchmarkTheorem3Potential(b *testing.B) {
	const n = 64
	const m = n * 256
	alpha := seqproc.AlphaFor(1, 0)
	var norm float64
	for i := 0; i < b.N; i++ {
		_, gs, _, err := seqproc.PotentialSeries(n, m, 1, 0, alpha, m/2, n, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		var maxG float64
		for _, g := range gs {
			if g > maxG {
				maxG = g
			}
		}
		norm = maxG / n
	}
	b.ReportMetric(norm, "maxGamma/n")
}

// BenchmarkAblationQueueFactor sweeps the queue-count multiplier c
// (n = c·P): more queues cut contention but raise rank error (DESIGN.md A1).
func BenchmarkAblationQueueFactor(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	for _, factor := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("c=%d", factor), func(b *testing.B) {
			q, err := pqadapt.NewMultiQueueBeta(1, factor*threads, 7)
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.NewSource(1)
			for i := 0; i < 1<<16; i++ {
				q.Insert(rng.Uint64()>>1, 0)
			}
			runPairs(b, q, threads)
		})
	}
}

// BenchmarkAblationBeta sweeps β for throughput (DESIGN.md A2): the paper
// reports β<1 gains up to 20%, with β=0 fastest at low thread counts only.
func BenchmarkAblationBeta(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	for _, beta := range []float64{0, 0.5, 0.75, 1} {
		b.Run(fmt.Sprintf("beta=%v", beta), func(b *testing.B) {
			q, err := pqadapt.NewMultiQueueBeta(beta, 0, 7)
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.NewSource(1)
			for i := 0; i < 1<<16; i++ {
				q.Insert(rng.Uint64()>>1, 0)
			}
			runPairs(b, q, threads)
		})
	}
}

// BenchmarkAblationChoices sweeps d, the number of sampled queues per
// deletion: throughput falls slowly with d while rank quality improves
// (the d-choice generalisation; d=2 is the paper's rule).
func BenchmarkAblationChoices(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	for _, d := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			mq, err := core.New[int32](
				core.WithQueues(8), core.WithChoices(d), core.WithSeed(7))
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.NewSource(1)
			for i := 0; i < 1<<16; i++ {
				mq.Insert(rng.Uint64()>>1, 0)
			}
			benchHandlePairs(b, mq, threads)
		})
	}
}

// benchHandlePairs drives b.N insert+delete pairs through dedicated handles
// and reports Mops/s.
func benchHandlePairs(b *testing.B, mq *core.MultiQueue[int32], threads int) {
	b.Helper()
	per := b.N/threads + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := mq.Handle()
			r := xrand.NewSource(uint64(w))
			for i := 0; i < per; i++ {
				h.Insert(r.Uint64()>>1, 0)
				h.DeleteMin()
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	ops := float64(2 * per * threads)
	b.ReportMetric(ops/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkAblationAtomicMode compares try-lock deletion against the
// distributionally linearizable global-lock mode (DESIGN.md A3).
func BenchmarkAblationAtomicMode(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	for _, atomicMode := range []bool{false, true} {
		name := "trylock"
		if atomicMode {
			name = "atomic"
		}
		b.Run(name, func(b *testing.B) {
			mq, err := core.New[int32](
				core.WithBeta(1), core.WithSeed(7), core.WithAtomic(atomicMode))
			if err != nil {
				b.Fatal(err)
			}
			rng := xrand.NewSource(1)
			for i := 0; i < 1<<15; i++ {
				mq.Insert(rng.Uint64()>>1, 0)
			}
			per := b.N/threads + 1
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := mq.Handle()
					r := xrand.NewSource(uint64(w))
					for i := 0; i < per; i++ {
						h.Insert(r.Uint64()>>1, 0)
						h.DeleteMin()
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			ops := float64(2 * per * threads)
			b.ReportMetric(ops/b.Elapsed().Seconds()/1e6, "Mops/s")
		})
	}
}
