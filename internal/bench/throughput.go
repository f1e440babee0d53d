// Package bench is the measurement harness behind the paper's evaluation
// (§5): a duration-bounded throughput runner (Figure 1), a rank-quality
// runner with globally sequenced operation logs and offline Fenwick
// post-processing (Figure 2 — the paper's timestamp methodology with a
// strictly stronger ordering), the JSON report every powerbench
// subcommand emits, and the aligned ASCII table it prints. The SSSP
// timing (Figure 3) and the job servers are measured by their own runners,
// graph.ParallelSSSPBatch, jobs.Run and jobs.RunOpen, which powerbench
// calls directly.
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerchoice/internal/core"
	"powerchoice/internal/graph"
	"powerchoice/internal/pqadapt"
	"powerchoice/internal/sched"
	"powerchoice/internal/xrand"
)

// throughputSeedTag domain-separates the harness's random streams from the
// streams the queue under test derives from the same root seed.
const throughputSeedTag = "bench.throughput"

// ThroughputSpec configures one throughput measurement.
type ThroughputSpec struct {
	// Impl selects the queue implementation.
	Impl pqadapt.Impl
	// Queues fixes the internal queue count of MultiQueue implementations;
	// 0 derives it from the host (the paper's throughput runs use n = 2·P,
	// which is the derived default).
	Queues int
	// Threads is the number of worker goroutines.
	Threads int
	// Duration bounds the run; the deadline is checked every 64 operations.
	Duration time.Duration
	// Prefill inserts this many random-key elements before timing, keeping
	// the run in the never-empty regime the paper measures.
	Prefill int
	// Batch is the bulk-operation size k: workers insert and delete k
	// elements per batch call (one lock acquisition per k on MultiQueue
	// implementations; a loop fallback elsewhere). 0 or 1 measures the
	// classic single-op loop.
	Batch int
	// Seed fixes all randomness.
	Seed uint64
}

// ThroughputResult reports one throughput measurement.
type ThroughputResult struct {
	// Ops counts completed operations (inserts + successful deletes)
	// across workers. Failed pops are NOT counted — they used to be, which
	// inflated MOps whenever Prefill was small enough for workers to race
	// the queue empty (see EmptyPops).
	Ops int64
	// EmptyPops counts DeleteMin calls that returned ok=false: attempts,
	// not completed work. Near zero in the paper's never-empty regime; a
	// large value flags a measurement outside that regime.
	EmptyPops int64
	// BufferedPops counts deletions that came out of a batch refill beyond
	// its first element — the elements whose latency the batching hid and
	// whose rank slack the batch buffer caused. Zero when unbatched.
	BufferedPops int64
	// Elapsed is the measured wall time.
	Elapsed time.Duration
	// MOps is throughput in million operations per second.
	MOps float64
	// LockFails is the core.HandleStats try-lock loss count summed over
	// every worker handle; zero for implementations without core handles.
	LockFails int64
	// Topology records what the measured queue resolved to.
	Topology pqadapt.Topology
}

// paddedCount keeps per-worker counters on separate cache lines. The
// contention counters are copied out of the worker's core handle after its
// loop exits (handles are single-goroutine; reading them mid-run would
// race).
type paddedCount struct {
	n         int64
	empty     int64
	buffered  int64
	lockFails int64
	_         [32]byte
}

// Throughput runs alternating insert / deleteMin pairs on the chosen
// implementation for the configured duration (§5 methodology).
func Throughput(spec ThroughputSpec) (ThroughputResult, error) {
	if spec.Threads < 1 {
		return ThroughputResult{}, fmt.Errorf("bench: threads %d < 1", spec.Threads)
	}
	if spec.Duration <= 0 {
		return ThroughputResult{}, fmt.Errorf("bench: non-positive duration %v", spec.Duration)
	}
	q, err := pqadapt.NewSpec(pqadapt.Spec{Impl: spec.Impl, Queues: spec.Queues, Seed: spec.Seed})
	if err != nil {
		return ThroughputResult{}, err
	}
	topology := pqadapt.TopologyOf(spec.Impl, q)
	// The queue constructed from spec.Seed hands its handles streams from
	// xrand.NewSharded(spec.Seed) at indices 1, 2, …; the harness must not
	// draw its per-worker key streams from the same family at overlapping
	// indices, or benchmark keys correlate with the queue's internal
	// pick/coin streams (TestThroughputSeedDomainSeparated pins this).
	sh := xrand.NewSharded(xrand.Tag(spec.Seed, throughputSeedTag))
	prefillRng := sh.Source(1 << 20)
	for i := 0; i < spec.Prefill; i++ {
		q.Insert(prefillRng.Uint64()>>1, int32(i))
	}
	// Collect prefill garbage so GC pauses do not land inside the timed
	// region's lock critical sections.
	runtime.GC()

	counts := make([]paddedCount, spec.Threads)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(spec.Duration)
	for w := 0; w < spec.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := graph.ConcurrentPQ(q)
			if wl, ok := q.(graph.WorkerLocal); ok {
				view = wl.Local()
			}
			rng := sh.Source(w)
			var local, empty, buffered int64
			if batch := spec.Batch; batch > 1 {
				// Batched variant of the same alternating workload: k
				// inserts then k deletes per round, through the bulk
				// operations (one lock acquisition per k on MultiQueues)
				// and the shared worker-local pop buffer.
				bq := sched.AsBatched(view)
				popBuf := sched.NewPopBuffer[int32](bq, batch)
				keys := make([]uint64, batch)
				vals := make([]int32, batch)
				for !stop.Load() {
					for i := 0; i < 32; i += batch {
						for j := 0; j < batch; j++ {
							keys[j] = rng.Uint64() >> 1
						}
						bq.InsertBatch(keys, vals)
						local += int64(batch)
						for j := 0; j < batch; j++ {
							if _, _, ok := popBuf.Pop(); ok {
								local++
							} else {
								empty++
								break
							}
						}
					}
					if time.Now().After(deadline) {
						stop.Store(true)
					}
				}
				buffered = popBuf.BufferedPops()
			} else {
				for !stop.Load() {
					for i := 0; i < 32; i++ {
						view.Insert(rng.Uint64()>>1, int32(i))
						local++
						if _, _, ok := view.DeleteMin(); ok {
							local++
						} else {
							empty++
						}
					}
					if time.Now().After(deadline) {
						stop.Store(true)
					}
				}
			}
			counts[w].n = local
			counts[w].empty = empty
			counts[w].buffered = buffered
			if hl, ok := view.(interface{ Handle() *core.Handle[int32] }); ok {
				hs := hl.Handle().Stats()
				counts[w].lockFails = hs.LockFails
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total, empty, buffered, fails int64
	for i := range counts {
		total += counts[i].n
		empty += counts[i].empty
		buffered += counts[i].buffered
		fails += counts[i].lockFails
	}
	return ThroughputResult{
		Ops:          total,
		EmptyPops:    empty,
		BufferedPops: buffered,
		Elapsed:      elapsed,
		MOps:         float64(total) / elapsed.Seconds() / 1e6,
		LockFails:    fails,
		Topology:     topology,
	}, nil
}
