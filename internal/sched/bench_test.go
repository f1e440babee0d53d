package sched_test

import (
	"fmt"
	"testing"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
)

// BenchmarkRunConfig measures the executor's own cost per item: one worker
// expands a fixed 2^16-node implicit ternary tree on the MultiQueue (8
// queues), unbatched and at k = 8. The task only pushes children, so
// ns/item is the executor plus the queue operations it issues; building
// and seeding each queue is outside the timed region.
//
//	go test -run '^$' -bench BenchmarkRunConfig -count 10 ./internal/sched
func BenchmarkRunConfig(b *testing.B) {
	const nodes = 1 << 16
	task := func(_ uint64, u int32, push func(uint64, int32)) bool {
		for c := 3*u + 1; c <= 3*u+3 && c < nodes; c++ {
			push(scrambleKey(c), c)
		}
		return true
	}
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				q, err := pqadapt.NewSpec(pqadapt.Spec{Impl: pqadapt.ImplMultiQueue, Queues: 8, Seed: 53})
				if err != nil {
					b.Fatal(err)
				}
				q.Insert(scrambleKey(0), 0)
				b.StartTimer()
				st := sched.RunConfig[int32](q, sched.Config{Workers: 1, Batch: k}, task, 1)
				if st.Processed != nodes {
					b.Fatalf("processed %d of %d nodes", st.Processed, nodes)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/item")
		})
	}
}
