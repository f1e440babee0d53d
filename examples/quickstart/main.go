// Quickstart: the smallest useful program against the public API.
//
// It builds a (1+β) MultiQueue, feeds it prioritised jobs from several
// goroutines through the batched fast path (one internal lock acquisition
// per batch instead of one per job), drains it with batched pops, and
// prints what came out and how far from the true priority order the relaxed
// queue strayed.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"powerchoice"
)

func main() {
	// β = 0.75 is the paper's sweet spot: ~20% more throughput than the
	// original MultiQueue at a modest rank cost.
	q, err := powerchoice.New[string](
		powerchoice.WithBeta(0.75),
		powerchoice.WithQueueFactor(2),
		powerchoice.WithSeed(2017),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Produce: four goroutines insert prioritised jobs, one batch each —
	// a batch moves under a single lock acquisition, so producers that
	// generate work in groups pay the queue's overhead once per batch.
	const producers = 4
	const jobsPerProducer = 8
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.NewHandle() // one handle per goroutine on hot paths
			keys := make([]uint64, jobsPerProducer)
			vals := make([]string, jobsPerProducer)
			for j := 0; j < jobsPerProducer; j++ {
				keys[j] = uint64(p + producers*j)
				vals[j] = fmt.Sprintf("job-p%d-#%d", p, j)
			}
			h.InsertBatch(keys, vals)
		}(p)
	}
	wg.Wait()
	fmt.Printf("queued %d jobs across %d internal queues (β=%.2f)\n\n",
		q.Len(), q.NumQueues(), q.Beta())

	// Consume: drain through the batched fast path (up to 4 jobs per lock
	// acquisition, each batch in ascending priority) and measure how
	// relaxed the order actually was.
	h := q.NewHandle()
	prios := make([]uint64, 4)
	names := make([]string, 4)
	var order []uint64
	batches := 0
	for {
		n := h.DeleteMinBatch(prios, names, 4)
		if n == 0 {
			break
		}
		batches++
		for i := range n {
			order = append(order, prios[i])
			fmt.Printf("  popped %-12s (priority %2d)\n", names[i], prios[i])
		}
	}

	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	sorted := sort.SliceIsSorted(order, func(i, j int) bool { return order[i] < order[j] })
	st := h.Stats()
	fmt.Printf("\ndrained %d jobs; strictly sorted: %v; adjacent inversions: %d\n",
		len(order), sorted, inversions)
	fmt.Printf("consumer stats: %d deletes in %d batch pops\n", st.Deletes, batches)
	fmt.Println("relaxation trades a few inversions for multicore scalability —")
	fmt.Println("the paper bounds the expected rank error by O(n/β²) at every step.")
}
