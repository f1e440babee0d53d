package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"powerchoice/internal/fenwick"
	"powerchoice/internal/graph"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
	"powerchoice/internal/stats"
)

// RankSpec configures a rank-quality measurement (Figure 2: mean rank
// returned vs β, on a fixed queue count and thread count).
type RankSpec struct {
	// Impl optionally selects an implementation from the benchmark line-up;
	// when set, Beta is ignored (the line-up impl fixes β) but Queues still
	// applies to MultiQueue implementations.
	Impl pqadapt.Impl
	// Beta is the (1+β) parameter of the MultiQueue under test.
	Beta float64
	// Queues fixes the internal queue count of MultiQueue implementations.
	// When 0, rank measurements default to the paper's fixed topology
	// (pqadapt.PaperQueues = 8) rather than a host-derived count, so rank
	// numbers are comparable across machines and never degenerate on small
	// ones.
	Queues int
	// Threads is the number of concurrent deleters (the paper uses 8).
	Threads int
	// Prefill is the number of initially inserted elements; keys are the
	// consecutive labels 0..Prefill-1 so ranks are well defined.
	Prefill int
	// OpsPerThread is the number of delete+insert pairs each thread runs.
	OpsPerThread int
	// Batch is the bulk-deletion size k: each thread refills a local buffer
	// of up to k elements per DeleteMinBatch and consumes it element by
	// element. Removal events are sequenced at consumption time, so the
	// measured ranks include the batching slack — up to (k−1)·Threads
	// elements can sit invisible in local buffers at any moment, and the
	// mean rank is expected to exceed the unbatched mean by at most that
	// (TestRankQualityBatchedSlack pins the bound). 0 or 1 measures the
	// classic single-op loop. Implementations without native batch support
	// run a loop fallback with identical buffering semantics.
	Batch int
	// Seed fixes all randomness.
	Seed uint64
}

// RankResult summarises the offline rank analysis of one run.
type RankResult struct {
	// Mean, P50, P99 and Max describe the distribution of removal ranks
	// (1 = the removal took the global minimum).
	Mean, P50, P99 float64
	Max            float64
	// Removals is the number of analysed removal events.
	Removals int
	// Hist buckets ranks geometrically.
	Hist *stats.Histogram
	// Topology records what the measured queue resolved to.
	Topology pqadapt.Topology
}

// rankEvent is one globally sequenced queue operation.
type rankEvent struct {
	seq    int64
	key    uint64
	insert bool
}

// RankQuality measures the rank distribution of the (1+β) MultiQueue under
// concurrent load. Every operation draws a global sequence number from an
// atomic counter (a strictly stronger ordering than the paper's coherent
// timestamps); the removal ranks are then computed offline by replaying the
// log against a Fenwick presence tree — exactly the paper's post-processing
// step.
func RankQuality(spec RankSpec) (RankResult, error) {
	if spec.Threads < 1 || spec.Prefill < 1 || spec.OpsPerThread < 1 {
		return RankResult{}, fmt.Errorf("bench: invalid rank spec %+v", spec)
	}
	var q pqadapt.Queue
	var err error
	if spec.Impl != "" {
		queues := spec.Queues
		if queues == 0 {
			// Rank experiments run the paper's fixed topology by default:
			// a host-derived queue count would make rank numbers (and on
			// 2-core machines, the very existence of relaxation) depend on
			// GOMAXPROCS. Implementations without queues ignore the count.
			queues = pqadapt.PaperQueues
		}
		q, err = pqadapt.NewSpec(pqadapt.Spec{Impl: spec.Impl, Queues: queues, Seed: spec.Seed})
	} else {
		if spec.Queues < 1 {
			return RankResult{}, fmt.Errorf("bench: invalid rank spec %+v", spec)
		}
		q, err = pqadapt.NewMultiQueueBeta(spec.Beta, spec.Queues, spec.Seed)
	}
	if err != nil {
		return RankResult{}, err
	}
	topology := pqadapt.TopologyOf(spec.Impl, q)
	// Prefill MultiQueues through one dedicated handle rather than the
	// pooled path: pooled handles are re-created whenever the goroutine
	// migrates, which makes the random queue assignment — and hence a
	// single-threaded run — nondeterministic even under a fixed seed.
	// (k-LSM keeps the shared path: a dedicated local handle would strand
	// its final partial insert batch when abandoned.)
	ins := graph.ConcurrentPQ(q)
	if _, isMQ := q.(pqadapt.MQConfigured); isMQ {
		if wl, ok := q.(graph.WorkerLocal); ok {
			ins = wl.Local()
		}
	}
	for i := 0; i < spec.Prefill; i++ {
		ins.Insert(uint64(i), int32(i))
	}
	// Collect prefill garbage before measuring: a GC pause that lands while
	// a worker holds a queue's spin lock stalls that queue's frontier and
	// grossly inflates measured ranks (the artifact the paper's thread
	// pinning avoids).
	runtime.GC()
	// Fresh labels continue the sequence, keeping the run prefixed (§3).
	var nextLabel atomic.Uint64
	nextLabel.Store(uint64(spec.Prefill))
	var seq atomic.Int64

	logs := make([][]rankEvent, spec.Threads)
	var wg sync.WaitGroup
	for w := 0; w < spec.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := graph.ConcurrentPQ(q)
			if wl, ok := q.(graph.WorkerLocal); ok {
				local = wl.Local()
			}
			// Batched mode: a thread-local buffer refilled k at a time
			// (the shared sched.PopBuffer). Each removal is sequenced when
			// the thread consumes it, not when the batch left the shared
			// structure — that is the rank cost batching actually imposes
			// on a consumer.
			batch := spec.Batch
			var popBuf *sched.PopBuffer[int32]
			if batch > 1 {
				popBuf = sched.NewPopBuffer[int32](local, batch)
			}
			events := make([]rankEvent, 0, 2*spec.OpsPerThread)
			for i := 0; i < spec.OpsPerThread; i++ {
				var key uint64
				var ok bool
				if batch <= 1 {
					key, _, ok = local.DeleteMin()
				} else {
					key, _, ok = popBuf.Pop()
				}
				s := seq.Add(1)
				if ok {
					events = append(events, rankEvent{seq: s, key: key})
				}
				label := nextLabel.Add(1) - 1
				local.Insert(label, int32(0))
				events = append(events, rankEvent{seq: seq.Add(1), key: label, insert: true})
			}
			logs[w] = events
		}(w)
	}
	wg.Wait()

	// Offline replay in sequence order.
	var all []rankEvent
	for _, l := range logs {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	capacity := int(nextLabel.Load())
	present := fenwick.New(capacity)
	for i := 0; i < spec.Prefill; i++ {
		present.Add(i, 1)
	}
	var welford stats.Welford
	hist := stats.NewHistogram(24)
	ranks := make([]float64, 0, len(all)/2)
	for _, ev := range all {
		if ev.insert {
			present.Add(int(ev.key), 1)
			continue
		}
		r := float64(present.PrefixSum(int(ev.key)))
		if r < 1 {
			// The sequence numbers are drawn just after each operation
			// returns, so a removal can occasionally be logged before the
			// insert that produced its key (the paper notes the same caveat
			// for its timestamps). Clamp to the minimum possible rank.
			r = 1
		}
		present.Add(int(ev.key), -1)
		welford.Add(r)
		hist.Add(r)
		ranks = append(ranks, r)
	}
	if len(ranks) == 0 {
		return RankResult{}, fmt.Errorf("bench: no removals recorded")
	}
	sort.Float64s(ranks)
	return RankResult{
		Mean:     welford.Mean(),
		P50:      stats.SortedPercentile(ranks, 50),
		P99:      stats.SortedPercentile(ranks, 99),
		Max:      welford.Max(),
		Removals: len(ranks),
		Hist:     hist,
		Topology: topology,
	}, nil
}
