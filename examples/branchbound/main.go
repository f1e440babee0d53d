// Branchbound: parallel branch-and-bound for the 0/1 knapsack problem, the
// original motivation for relaxed priority queues (Karp & Zhang's parallel
// branch-and-bound, cited as the first instance of the strategy in §1–§2).
//
// Subproblems are explored best-first by upper bound from a (1+β)
// MultiQueue, driven by the generic sched executor — the same worker loop
// that runs parallel SSSP and the job server. Because branch-and-bound
// tolerates out-of-order exploration — worse nodes are pruned by the
// incumbent — the relaxed queue yields the exact optimum while letting all
// workers expand nodes concurrently.
//
// Run with: go run ./examples/branchbound
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"powerchoice"
	"powerchoice/internal/sched"
	"powerchoice/internal/xrand"
)

// item is a knapsack candidate.
type item struct {
	value, weight int64
}

// node is a branch-and-bound subproblem: a prefix decision over items
// [0, depth) with accumulated value and weight.
type node struct {
	depth  int32
	value  int64
	weight int64
}

func main() {
	const nItems = 34
	const capacity = 4000
	items := generateItems(nItems, 11)

	// Sort by value density so the fractional bound is tight.
	sort.Slice(items, func(i, j int) bool {
		return items[i].value*items[j].weight > items[j].value*items[i].weight
	})

	start := time.Now()
	seqBest := sequentialDP(items, capacity)
	dpTime := time.Since(start)

	start = time.Now()
	parBest, explored, err := parallelBB(items, capacity, runtime.GOMAXPROCS(0))
	if err != nil {
		log.Fatal(err)
	}
	bbTime := time.Since(start)

	fmt.Printf("knapsack: %d items, capacity %d\n", nItems, capacity)
	fmt.Printf("dynamic-programming optimum:  %d  (%v)\n", seqBest, dpTime)
	fmt.Printf("parallel branch-and-bound:    %d  (%v, %d nodes explored)\n",
		parBest, bbTime, explored)
	if seqBest != parBest {
		log.Fatalf("MISMATCH: relaxed exploration changed the optimum!")
	}
	fmt.Println("\nthe relaxed queue may expand nodes out of best-first order, but")
	fmt.Println("pruning against the shared incumbent keeps the result exact —")
	fmt.Println("priority inversions only cost extra explored nodes (Karp–Zhang).")
}

func generateItems(n int, seed uint64) []item {
	rng := xrand.NewSource(seed)
	items := make([]item, n)
	for i := range items {
		items[i] = item{
			value:  int64(rng.Intn(900) + 100),
			weight: int64(rng.Intn(400) + 50),
		}
	}
	return items
}

// sequentialDP solves knapsack exactly by dynamic programming over weight.
func sequentialDP(items []item, capacity int64) int64 {
	dp := make([]int64, capacity+1)
	for _, it := range items {
		for w := capacity; w >= it.weight; w-- {
			if v := dp[w-it.weight] + it.value; v > dp[w] {
				dp[w] = v
			}
		}
	}
	return dp[capacity]
}

// fractionalBound is the classic LP relaxation bound for nodes expanded in
// density order.
func fractionalBound(items []item, n node, capacity int64) float64 {
	bound := float64(n.value)
	room := capacity - n.weight
	for i := int(n.depth); i < len(items) && room > 0; i++ {
		it := items[i]
		if it.weight <= room {
			bound += float64(it.value)
			room -= it.weight
		} else {
			bound += float64(it.value) * float64(room) / float64(it.weight)
			room = 0
		}
	}
	return bound
}

// bbQueue adapts the public MultiQueue facade to the executor, handing each
// worker goroutine a dedicated handle as its local view.
type bbQueue struct {
	q *powerchoice.MultiQueue[node]
}

func (b bbQueue) Insert(key uint64, n node)       { b.q.Insert(key, n) }
func (b bbQueue) DeleteMin() (uint64, node, bool) { return b.q.DeleteMin() }
func (b bbQueue) Local() sched.Queue[node]        { return b.q.NewHandle() }

// parallelBB explores the decision tree best-first (by upper bound) with a
// relaxed priority queue shared by `workers` goroutines. Only the task body
// is knapsack-specific; termination detection and idle backoff come from
// the sched executor.
func parallelBB(items []item, capacity int64, workers int) (best int64, explored int64, err error) {
	q, err := powerchoice.New[node](
		powerchoice.WithBeta(0.75),
		powerchoice.WithSeed(5),
	)
	if err != nil {
		return 0, 0, err
	}
	// Priority: negated bound, so higher bounds pop first. Bounds fit
	// comfortably in the mantissa range used.
	keyOf := func(bound float64) uint64 {
		return math.MaxUint64/2 - uint64(bound*16)
	}
	var incumbent atomic.Int64
	raiseIncumbent := func(v int64) {
		for {
			c := incumbent.Load()
			if v <= c || incumbent.CompareAndSwap(c, v) {
				return
			}
		}
	}

	task := func(_ uint64, n node, push func(uint64, node)) bool {
		if fractionalBound(items, n, capacity) <= float64(incumbent.Load()) {
			return false // pruned: the relaxation's wasted work
		}
		if int(n.depth) == len(items) {
			raiseIncumbent(n.value)
			return true
		}
		it := items[n.depth]
		// Branch 1: take the item (if it fits).
		if n.weight+it.weight <= capacity {
			child := node{depth: n.depth + 1, value: n.value + it.value, weight: n.weight + it.weight}
			raiseIncumbent(child.value)
			if b := fractionalBound(items, child, capacity); b > float64(incumbent.Load()) {
				push(keyOf(b), child)
			}
		}
		// Branch 2: skip the item.
		child := node{depth: n.depth + 1, value: n.value, weight: n.weight}
		if b := fractionalBound(items, child, capacity); b > float64(incumbent.Load()) {
			push(keyOf(b), child)
		}
		return true
	}

	root := node{}
	bq := bbQueue{q: q}
	bq.Insert(keyOf(fractionalBound(items, root, capacity)), root)
	st := sched.RunConfig[node](bq, sched.Config{Workers: workers}, task, 1)
	return incumbent.Load(), st.Processed + st.Stale, nil
}
