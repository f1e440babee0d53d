package core

import (
	"fmt"

	"powerchoice/internal/xrand"
)

// Budget probes: the components of one steady-state Mixed pair (one Insert
// plus one DeleteMin on a prefilled structure — the alternating workload of
// BenchmarkHandleMixed and powerbench throughput), each isolated behind a
// closure so the layer ledger, `perfbench/run.py --trace 1`, can decompose
// the measured pair cost into a ns/op budget. The probes live in core
// because the components they time (selector sampling, the queue lock, the
// locked heap op, handle accounting) are unexported by design; nothing here
// runs on a hot path — it is measurement scaffolding.
//
// The decomposition is additive by construction: sample + lock + heap +
// stats re-assembles the pair minus call glue and cache interaction between
// the components, which the ledger reports as core.residual_ns.

// BudgetProbe is one timed component. New builds fresh probe state (its
// cost is setup, not measurement — callers reset timers after it) and
// returns the loop body to measure.
type BudgetProbe struct {
	// Name is the component's short table label.
	Name string
	// Doc is a one-line description of what the probe times.
	Doc string
	// SubOf names the component this probe sub-divides ("" for top-level
	// components). Sub-probes attribute a parent's cost — they are reported
	// alongside it but excluded from the additive sum that derives the
	// residual, since their parent already covers them.
	SubOf string
	// New allocates the probe's state and returns the measured loop.
	New func() func(iters int)
}

// budgetSink defeats dead-code elimination of probe results.
var budgetSink uint64

// budgetSinkQueue consumes sampled queue pointers without the compare-and-
// count the sample probe used to run: sampleInsertQueue can never return nil
// (there is always a queue to insert into), so a `!= nil` branch there
// measured a never-taken test instead of the sampler. A typed package-level
// sink keeps the pointer live at zero comparison cost.
var budgetSinkQueue *lockedQueue[int32]

// BudgetProbes returns the component probes for a MultiQueue with the given
// queue count, total prefill, and seed: sample, lock, heap, stats, and the
// full pair (named "total"). The per-component state mirrors the total
// probe's — the same prefill per queue, the same RNG family — so the
// component costs are measured in the regime the pair runs in.
func BudgetProbes(queues, prefill int, seed uint64) ([]BudgetProbe, error) {
	if queues < 2 {
		return nil, fmt.Errorf("core: budget probes need >= 2 queues, got %d", queues)
	}
	if prefill < queues {
		return nil, fmt.Errorf("core: budget prefill %d below one element per queue", prefill)
	}
	prefilled := func() (*MultiQueue[int32], *Handle[int32], *xrand.Source) {
		mq, err := New[int32](WithQueues(queues), WithSeed(seed))
		if err != nil {
			panic(err) // queues >= 2 was validated above
		}
		h := mq.Handle()
		rng := xrand.NewSource(seed ^ 0x5bd1e995)
		for i := 0; i < prefill; i++ {
			h.Insert(rng.Uint64()>>1, 0)
		}
		return mq, h, rng
	}
	return []BudgetProbe{
		{
			Name: "sample",
			Doc:  "queue selection: insert draw + (1+beta) two-choice draw with top reads",
			New: func() func(int) {
				_, h, _ := prefilled()
				s := &h.sel
				return func(iters int) {
					for i := 0; i < iters; i++ {
						budgetSinkQueue = s.sampleInsertQueue()
						budgetSinkQueue = s.sampleDeleteQueue(s.flipBeta())
					}
				}
			},
		},
		{
			Name:  "draw",
			SubOf: "sample",
			Doc:   "sample's randomness half: coin flips + bounded index draws, no top reads",
			New: func() func(int) {
				// The same coin flips and generator advances the sample probe
				// performs per pair — the insert-side uniform draw and the
				// delete-side (1+beta) draw through the compiled plan — with
				// the queue-array indexing and cached-top loads stripped, so
				// sample − draw isolates the memory half (scan).
				// Mirrors d=2 (the probes' fixed configuration).
				_, h, _ := prefilled()
				s := &h.sel
				return func(iters int) {
					acc := 0
					for i := 0; i < iters; i++ {
						acc += s.rng.Intn(len(s.queues))
						if s.flipBeta() {
							a, b := s.rng.TwoDistinct32(len(s.queues))
							acc += a + b
						} else {
							acc += s.rng.Intn(len(s.queues))
						}
					}
					budgetSink += uint64(acc)
				}
			},
		},
		{
			Name:  "scan",
			SubOf: "sample",
			Doc:   "sample's memory half: candidate indexing + cached-top loads + compare",
			New: func() func(int) {
				// The loads and compares the delete-side sample performs on its
				// two candidates (queue-array indexing, two cached-top loads,
				// the winner compare), driven by rotating indices so the draws
				// themselves stay out of the measurement.
				mq, _, _ := prefilled()
				qs := mq.queues
				n := len(qs)
				return func(iters int) {
					var acc uint64
					i, j := 0, 1
					for it := 0; it < iters; it++ {
						qi, qj := &qs[i], &qs[j]
						ti, tj := qi.top.Load(), qj.top.Load()
						if ti <= tj {
							budgetSinkQueue = qi
							acc += ti
						} else {
							budgetSinkQueue = qj
							acc += tj
						}
						i++
						if i == n {
							i = 0
						}
						j++
						if j == n {
							j = 0
						}
					}
					budgetSink += acc
				}
			},
		},
		{
			Name: "lock",
			Doc:  "two uncontended TryLock acquisitions + releases",
			New: func() func(int) {
				mq, _, _ := prefilled()
				q := &mq.queues[0]
				return func(iters int) {
					for i := 0; i < iters; i++ {
						if q.lock.TryLock() {
							q.lock.Unlock()
						}
						if q.lock.TryLock() {
							q.lock.Unlock()
						}
					}
				}
			},
		},
		{
			Name: "heap",
			Doc:  "locked-queue push + popMin pair, including cached top upkeep",
			New: func() func(int) {
				mq, _, rng := prefilled()
				q := &mq.queues[0]
				// The total probe's prefill spreads over all queues; give this
				// single queue the same occupancy the pair's pops see.
				for q.dary.Len() < prefill/queues {
					q.push(rng.Uint64()>>1, 0)
				}
				return func(iters int) {
					for i := 0; i < iters; i++ {
						q.push(rng.Uint64()>>1, 0)
						it, _ := q.popMin()
						budgetSink += it.Key
					}
				}
			},
		},
		{
			Name: "stats",
			Doc:  "per-op handle accounting: the insert and delete op counters",
			New: func() func(int) {
				_, h, _ := prefilled()
				return func(iters int) {
					for i := 0; i < iters; i++ {
						h.inserts++
						h.deletes++
					}
				}
			},
		},
		{
			Name: "total",
			Doc:  "the full Insert + DeleteMin pair the components decompose",
			New: func() func(int) {
				_, h, rng := prefilled()
				return func(iters int) {
					for i := 0; i < iters; i++ {
						h.Insert(rng.Uint64()>>1, 0)
						if k, _, ok := h.DeleteMin(); ok {
							budgetSink += k
						}
					}
				}
			},
		},
	}, nil
}
