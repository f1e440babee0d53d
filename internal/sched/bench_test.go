package sched_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
	"powerchoice/internal/stats"
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

// BenchmarkRunOpenLateness measures how late RunOpen injects arrivals: one
// producer paces an evenly spaced 150,000/s schedule, one arrival per
// iteration, to one worker running a no-op task on the MultiQueue (8
// queues). An arrival's lateness is its injection instant minus its due
// instant, with due instants taken from the origin that puts the least-late
// injection on time, as perfbench's serve-bursty does; the p50 and p99 are
// reported in ns. At -cpu 1 the producer and the worker share one P.
//
//	go test -run '^$' -bench BenchmarkRunOpenLateness -cpu 1,2 -count 10 ./internal/sched
func BenchmarkRunOpenLateness(b *testing.B) {
	const rate = 150000
	q, err := pqadapt.NewSpec(pqadapt.Spec{Impl: pqadapt.ImplMultiQueue, Queues: 8, Seed: 53})
	if err != nil {
		b.Fatal(err)
	}
	schedule := evenSchedule(b.N, rate)
	inject := make([]int64, b.N)
	var origin time.Time
	gen := func(seq int) sched.Item[int32] {
		inject[seq] = time.Since(origin).Nanoseconds()
		return sched.Item[int32]{Key: scrambleKey(int32(seq)), Value: int32(seq)}
	}
	task := func(_ uint64, _ int32, _ func(uint64, int32)) bool { return true }
	b.ResetTimer()
	origin = time.Now()
	st := sched.RunOpen[int32](q, sched.OpenConfig{Workers: 1, Producers: 1, Schedule: schedule}, gen, task)
	b.StopTimer()
	if st.Processed != int64(b.N) {
		b.Fatalf("processed %d of %d arrivals", st.Processed, b.N)
	}
	late := make([]float64, b.N)
	for i, due := range schedule {
		late[i] = float64(inject[i] - due)
	}
	slices.Sort(late)
	// late[0] is the least-late injection, put on time.
	b.ReportMetric(stats.SortedPercentile(late, 50)-late[0], "p50-late-ns")
	b.ReportMetric(stats.SortedPercentile(late, 99)-late[0], "p99-late-ns")
}
