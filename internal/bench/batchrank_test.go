package bench

// Rank quality under batching: regression tests pinning the documented
// relaxation cost of the batch operations (see internal/core/batch.go).
//
// The slack has two parts. Invisibility: up to k−1 already-removed elements
// per handle wait in local buffers where concurrent consumers cannot see
// them — at most (k−1)·H elements across H handles. Depth: the j-th element
// of a batch was its queue's rank-j element when the batch was taken, so
// consuming it can exceed the unbatched process's rank by up to (j−1) local
// ranks — ≈ n·(k−1)/2 extra global rank in expectation on n balanced
// queues. The tests assert measured means stay under the combined bound
//
//	mean_batched ≤ mean_unbatched + (k−1)·H + n·(k−1)/2
//
// with 50% headroom for scheduler noise (no thread pinning in CI).

import (
	"testing"

	"powerchoice/internal/pqadapt"
	"powerchoice/internal/workload"
)

const (
	batchRankQueues  = 8
	batchRankThreads = 2
)

// meanRankOverSeeds averages RankQuality means over a few seeds to damp
// scheduler bursts.
func meanRankOverSeeds(t *testing.T, batch int) float64 {
	t.Helper()
	const seeds = 3
	var sum float64
	for s := uint64(0); s < seeds; s++ {
		res, err := RankQuality(RankSpec{
			Impl:         pqadapt.ImplMultiQueue,
			Queues:       batchRankQueues,
			Threads:      batchRankThreads,
			Prefill:      1 << 14,
			OpsPerThread: 1 << 12,
			Batch:        batch,
			Seed:         100 + s,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum += res.Mean
	}
	return sum / seeds
}

// TestRankQualityBatchedSlack measures DeleteMinBatch at k ∈ {4, 16}
// against the documented k-slack bound.
func TestRankQualityBatchedSlack(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	if raceEnabled {
		t.Skip("statistical bound; race instrumentation stalls workers past it")
	}
	base := meanRankOverSeeds(t, 1)
	for _, k := range []int{4, 16} {
		batched := meanRankOverSeeds(t, k)
		slack := float64((k-1)*batchRankThreads) + float64(batchRankQueues*(k-1))/2
		bound := (base + slack) * 1.5
		t.Logf("k=%d: mean rank %.2f (unbatched %.2f, documented bound %.2f)",
			k, batched, base, base+slack)
		if batched > bound {
			t.Errorf("k=%d: mean rank %.2f exceeds documented slack bound %.2f (base %.2f + slack %.2f, ×1.5 headroom)",
				k, batched, bound, base, slack)
		}
		if batched < base {
			// Batching strictly adds relaxation in this workload; a lower
			// mean is not an error (scheduler bursts can inflate the base)
			// but is worth noticing.
			t.Logf("note: batched mean %.2f below unbatched %.2f", batched, base)
		}
	}
}

// TestJobsBatchingInversionBound: the job server's priority-inversion count
// at k=4 must degrade by at most the documented factor vs unbatched. Each
// consumed batch element of depth j can be inverted against jobs hidden
// deeper in its batch and in the structure, so the inversion count grows
// ≈ k× in this single-worker drain; the pinned regression bound is 2k× plus
// an additive floor of 100 for near-zero baselines. A single worker keeps
// the measurement deterministic enough to pin (multi-worker inversion counts
// on an unpinned host are dominated by scheduler preemption bursts).
func TestJobsBatchingInversionBound(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	if raceEnabled {
		t.Skip("statistical bound; race instrumentation stalls workers past it")
	}
	spec := &workload.Spec{Name: "uniform4x8", Arrival: workload.ArrivalSpec{Process: workload.ArrivalPoisson}}
	for c := 0; c < 4; c++ {
		spec.Classes = append(spec.Classes, workload.ClassSpec{
			Weight: 1, Service: workload.ServiceSpec{Law: workload.ServiceUniform, Mean: 8},
		})
	}
	tr, err := workload.Generate(spec, 5, 40000, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	inv := func(batch int) (int64, int64) {
		var inversions, buffered int64
		for s := uint64(0); s < 3; s++ {
			res, err := Jobs(JobsSpec{
				Impl:     pqadapt.ImplMultiQueue,
				Queues:   8,
				Workload: tr,
				Threads:  1,
				Batch:    batch,
				Seed:     200 + s,
			})
			if err != nil {
				t.Fatal(err)
			}
			inversions += res.Inversions
			buffered += res.BufferedPops
		}
		return inversions / 3, buffered / 3
	}
	baseInv, baseBuf := inv(1)
	batchInv, batchBuf := inv(k)
	t.Logf("inversions: unbatched %d, k=%d batched %d (buffered pops %d)",
		baseInv, k, batchInv, batchBuf)
	if baseBuf != 0 {
		t.Errorf("unbatched run reported %d buffered pops", baseBuf)
	}
	if batchBuf == 0 {
		t.Error("batched run reported no buffered pops — batching did not engage")
	}
	if bound := int64(2*k)*baseInv + 100; batchInv > bound {
		t.Errorf("batched inversions %d exceed documented factor bound %d (2·k·%d + 100)",
			batchInv, bound, baseInv)
	}
}
